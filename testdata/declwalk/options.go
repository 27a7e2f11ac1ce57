// Package declwalk is the fixture the walk rules tests run the walk on: one
// case per rule of each kind. options.go and set.go hold the setting rules,
// exports.go the calling rules and fields.go the reading rules; each comment
// names what the walk must flag. The fixture is its own scope, so Options'
// fields are also fields, and the field rules flag those only set.
//
// Each field of Options is set one way only; the walk must flag Default and
// TestOnly.
package declwalk

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
