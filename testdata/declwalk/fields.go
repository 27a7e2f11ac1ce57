package declwalk

import "encoding/json"

// written: all three. x.f = v, x.f[k] = v, delete(x.f, k) and x.f.g = v
// through a struct value are writes.
type written struct {
	only int
	m    map[string]int
	sub  inner
}

func write(w *written) {
	w.only = 1
	w.m["k"] = 1
	delete(w.m, "k")
	w.sub.v = 2
}

// counted: n. x.f++, x.f += v and a composite literal's f: key are writes.
type counted struct{ n int }

func count() *counted {
	c := &counted{n: 1}
	c.n++
	c.n += 2
	return c
}

// appended: items. x.f in the right-hand side of its own assignment is a
// write.
type appended struct{ items []int }

func (a *appended) add(v int) { a.items = append(a.items, v) }

// addressed: none. &x.f is a read.
type addressed struct{ p int }

func (a *addressed) ptr() *int { return &a.p }

// key: none, as a map key type. keyed: unused.
type key struct{ a, b int }

type keyed struct {
	index  map[key]bool
	unused int
}

func (k *keyed) has(a, b int) bool {
	k.unused = a
	return k.index[key{a, b}]
}

// encoded: none, as encoding/json reads it whole.
type encoded struct{ x, y int }

func encode() ([]byte, error) { return json.Marshal(encoded{x: 1, y: 2}) }

// inner and promoted: none. p.v reads the embedded field and v.
type inner struct{ v int }

type promoted struct{ inner }

func (p promoted) value() int { return p.v }
