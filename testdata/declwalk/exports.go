package declwalk

// CalledByTests: flagged, as only a _test.go file calls it.
func CalledByTests() int { return 1 }

// Recurse: flagged, as a call from its own body is not a caller.
func Recurse(n int) int {
	if n == 0 {
		return 0
	}
	return Recurse(n - 1)
}

// Square.Area: called only through shape, which Square implements.
// Square.String: reached only through fmt.Stringer, with no reference in
// the package.
type Square struct{ side int }

func (s Square) Area() int { return s.side * s.side }

func (s Square) String() string { return "square" }

type shape interface{ Area() int }

func area(s shape) int { return s.Area() }

// Box.Get: called on Box[int], an instance, which counts for the generic
// declaration.
type Box[T any] struct{ v T }

func (b Box[T]) Get() T { return b.v }

func unbox() int { return Box[int]{v: 1}.Get() }
