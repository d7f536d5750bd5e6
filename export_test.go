package joininference

import "repro/internal/semijoin"

// WitnessTable exposes a class set's semijoin witness table to the
// external tests, which drive sessions through the service layer.
func WitnessTable(cs *ClassSet) *semijoin.Table { return cs.witnesses() }
