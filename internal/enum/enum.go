// Package enum is the one name table behind the small integer enums
// that cross sim.Config's JSON form: the deadlock mode, selection
// policy, switching discipline and dispatch policy of the router, and
// the side-band mechanism. Each enum lists its names once, in value
// order; String, the text codec and the range check all read that list.
// On the wire an enum is its name, not an integer that would silently
// renumber if a constant were ever inserted, and decoding is strict: an
// unknown name or an out-of-range value is an error, never a zero value.
package enum

import (
	"fmt"
	"strings"
)

// Names is the name table of the enum type T: value v is named names[v].
type Names[T ~uint8] struct {
	pkg   string // error prefix: "router"
	noun  string // the enum in error text: "deadlock mode"
	names []string
}

// New returns T's table. pkg prefixes errors, noun names the enum in
// them, and names lists the wire names in value order.
func New[T ~uint8](pkg, noun string, names ...string) Names[T] {
	return Names[T]{pkg: pkg, noun: noun, names: names}
}

// String returns v's name, or "pkg.Type(v)" for a value outside the table.
func (t Names[T]) String(v T) string {
	if int(v) < len(t.names) {
		return t.names[v]
	}
	return fmt.Sprintf("%T(%d)", v, uint8(v))
}

// Check rejects a value outside the table.
func (t Names[T]) Check(v T) error {
	if int(v) < len(t.names) {
		return nil
	}
	return fmt.Errorf("%s: unknown %s %d", t.pkg, t.noun, uint8(v))
}

// MarshalText encodes v as its name.
func (t Names[T]) MarshalText(v T) ([]byte, error) {
	if err := t.Check(v); err != nil {
		return nil, err
	}
	return []byte(t.names[v]), nil
}

// UnmarshalText sets *v to the value named text.
func (t Names[T]) UnmarshalText(v *T, text []byte) error {
	for i, name := range t.names {
		if name == string(text) {
			*v = T(i)
			return nil
		}
	}
	return fmt.Errorf("%s: unknown %s %q (want one of %s)", t.pkg, t.noun, text, strings.Join(t.names, ", "))
}
