package joininference

import "repro/internal/semijoin"

// WitnessTable exposes a class set's semijoin witness table to the
// external tests, which drive sessions through the service layer.
func WitnessTable(cs *ClassSet) *semijoin.Table { return cs.witnesses() }

// ColdClassSet returns a class set for inst with no T-classes and an empty
// witness table, so a semijoin session over it pays for every witness set
// it touches.
func ColdClassSet(inst *Instance) *ClassSet { return &ClassSet{inst: inst} }
