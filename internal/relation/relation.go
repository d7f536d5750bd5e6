// Package relation provides the relational substrate the paper assumes:
// schemas, tuples, relations and two-relation database instances.
//
// The paper's setting is two relations R and P with disjoint attribute sets
// and *no* known integrity constraints; values are compared only for
// equality, so they are modeled as opaque strings. A database instance is a
// pair of finite sets of tuples (Instance).
package relation

import (
	"encoding/csv"
	"fmt"
	"io"
	"strings"
)

// Value is an attribute value. The inference algorithms only ever compare
// values for equality, so a string representation loses nothing: integer
// data like TPC-H keys and the paper's synthetic domains are stored in
// decimal form.
type Value = string

// Tuple is a row: one Value per schema attribute, in schema order.
type Tuple []Value

// Clone returns an independent copy of t.
func (t Tuple) Clone() Tuple {
	out := make(Tuple, len(t))
	copy(out, t)
	return out
}

// String renders the tuple as "(a, b, c)".
func (t Tuple) String() string {
	return "(" + strings.Join(t, ", ") + ")"
}

// Schema names a relation and its attributes.
type Schema struct {
	Name       string
	Attributes []string
}

// NewSchema builds a schema, validating that attribute names are non-empty
// and unique.
func NewSchema(name string, attrs ...string) (*Schema, error) {
	if name == "" {
		return nil, fmt.Errorf("relation: schema name must be non-empty")
	}
	if len(attrs) == 0 {
		return nil, fmt.Errorf("relation: schema %s needs at least one attribute", name)
	}
	seen := make(map[string]bool, len(attrs))
	for _, a := range attrs {
		if a == "" {
			return nil, fmt.Errorf("relation: schema %s has an empty attribute name", name)
		}
		if seen[a] {
			return nil, fmt.Errorf("relation: schema %s has duplicate attribute %q", name, a)
		}
		seen[a] = true
	}
	return &Schema{Name: name, Attributes: append([]string(nil), attrs...)}, nil
}

// MustSchema is NewSchema that panics on error; for tests and literals.
func MustSchema(name string, attrs ...string) *Schema {
	s, err := NewSchema(name, attrs...)
	if err != nil {
		panic(err)
	}
	return s
}

// Arity returns the number of attributes.
func (s *Schema) Arity() int { return len(s.Attributes) }

// IndexOf returns the position of the named attribute, or -1 if absent.
func (s *Schema) IndexOf(attr string) int {
	for i, a := range s.Attributes {
		if a == attr {
			return i
		}
	}
	return -1
}

// Relation is a finite sequence of tuples conforming to a schema. Tuple
// order is preserved (it is the order of insertion or file order), which
// keeps runs deterministic; set semantics are not enforced but AddTuple can
// be asked to reject duplicates via Dedup.
type Relation struct {
	Schema *Schema
	Tuples []Tuple
}

// NewRelation returns an empty relation over the schema.
func NewRelation(schema *Schema) *Relation {
	return &Relation{Schema: schema}
}

// AddTuple appends a tuple after validating its arity.
func (r *Relation) AddTuple(t Tuple) error {
	if len(t) != r.Schema.Arity() {
		return fmt.Errorf("relation %s: tuple arity %d does not match schema arity %d",
			r.Schema.Name, len(t), r.Schema.Arity())
	}
	r.Tuples = append(r.Tuples, t)
	return nil
}

// MustAddTuple is AddTuple that panics on error.
func (r *Relation) MustAddTuple(vals ...Value) {
	if err := r.AddTuple(Tuple(vals)); err != nil {
		panic(err)
	}
}

// Len returns the number of tuples.
func (r *Relation) Len() int { return len(r.Tuples) }

// Dedup removes duplicate tuples in place, keeping first occurrences.
func (r *Relation) Dedup() {
	seen := make(map[string]bool, len(r.Tuples))
	out := r.Tuples[:0]
	for _, t := range r.Tuples {
		k := strings.Join(t, "\x00")
		if !seen[k] {
			seen[k] = true
			out = append(out, t)
		}
	}
	r.Tuples = out
}

// Project returns the values of tuple index ti at the given attribute
// positions.
func (r *Relation) Project(ti int, cols []int) Tuple {
	t := r.Tuples[ti]
	out := make(Tuple, len(cols))
	for i, c := range cols {
		out[i] = t[c]
	}
	return out
}

// Instance is the paper's database instance I = (R^I, P^I): instances of
// two relations with disjoint attribute sets.
//
// Instances are versioned: ApplyDelta (delta.go) returns the instance at
// the next version, sharing tuple storage, with deletions recorded as
// tombstones so row indexes stay stable across versions. The zero value of
// the version machinery — a literal &Instance{R: r, P: p} — is version 0
// with every row live.
type Instance struct {
	R *Relation
	P *Relation

	// version is the instance's position in its chain; chain is shared by
	// every version of it (lazily created, see delta.go).
	version int64
	chain   *chain
	// deadR/deadP tombstone deleted rows (nil: all live); nDeadR/nDeadP
	// cache their popcounts so LiveR/LiveP are O(1).
	deadR, deadP   []bool
	nDeadR, nDeadP int
}

// NewInstance pairs two relations, validating that their attribute sets are
// disjoint as the paper requires (attribute identity is positional in the
// algorithms, but disjoint names keep printed predicates unambiguous).
func NewInstance(r, p *Relation) (*Instance, error) {
	if r == nil || p == nil {
		return nil, fmt.Errorf("relation: instance needs two non-nil relations")
	}
	seen := make(map[string]bool, r.Schema.Arity())
	for _, a := range r.Schema.Attributes {
		seen[a] = true
	}
	for _, a := range p.Schema.Attributes {
		if seen[a] {
			return nil, fmt.Errorf("relation: attribute %q appears in both %s and %s",
				a, r.Schema.Name, p.Schema.Name)
		}
	}
	return &Instance{R: r, P: p}, nil
}

// MustInstance is NewInstance that panics on error.
func MustInstance(r, p *Relation) *Instance {
	i, err := NewInstance(r, p)
	if err != nil {
		panic(err)
	}
	return i
}

// ProductSize returns |R| · |P| over live rows, the number of tuples in
// the Cartesian product D = R × P at this version.
func (i *Instance) ProductSize() int64 {
	return int64(i.LiveR()) * int64(i.LiveP())
}

// ReadCSV loads a relation from CSV. The first record is the header naming
// the attributes; every following record is a tuple. name becomes the
// relation name.
func ReadCSV(name string, src io.Reader) (*Relation, error) {
	cr := csv.NewReader(src)
	cr.FieldsPerRecord = -1 // validated manually for better messages
	header, err := cr.Read()
	if err != nil {
		return nil, fmt.Errorf("relation %s: reading CSV header: %w", name, err)
	}
	schema, err := NewSchema(name, header...)
	if err != nil {
		return nil, err
	}
	rel := NewRelation(schema)
	for line := 2; ; line++ {
		rec, err := cr.Read()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("relation %s: reading CSV line %d: %w", name, line, err)
		}
		if len(rec) != schema.Arity() {
			return nil, fmt.Errorf("relation %s: line %d has %d fields, header has %d",
				name, line, len(rec), schema.Arity())
		}
		rel.Tuples = append(rel.Tuples, Tuple(rec))
	}
	return rel, nil
}

// WriteCSV writes the relation as CSV with a header row.
func (r *Relation) WriteCSV(dst io.Writer) error {
	cw := csv.NewWriter(dst)
	if err := cw.Write(r.Schema.Attributes); err != nil {
		return fmt.Errorf("relation %s: writing CSV header: %w", r.Schema.Name, err)
	}
	for _, t := range r.Tuples {
		if err := cw.Write(t); err != nil {
			return fmt.Errorf("relation %s: writing CSV tuple: %w", r.Schema.Name, err)
		}
	}
	cw.Flush()
	return cw.Error()
}
