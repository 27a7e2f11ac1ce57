// Package optionwalk is the fixture TestOptionWalkRules runs the option walk
// on: one case per setting rule. Each field of Options is set one way only;
// the walk must flag Default and TestOnly.
package optionwalk

// Options is an option struct by its name.
type Options struct {
	Keyed    int // a keyed literal sets it
	Elided   int // a literal whose type a slice literal elides sets it
	Mapped   int // a literal whose type a map literal elides sets it
	Assigned int // a field assignment sets it
	Flagged  int // &o.Flagged, handed to a flag, sets it
	Default  int // flagged: only a default in this, the declaring file, sets it
	TestOnly int // flagged: only a _test.go file sets it
}

func (o Options) withDefaults() Options {
	if o.Default == 0 {
		o.Default = 1
	}
	return o
}
