package batlife

// StrandedCharge describes the bound charge left in the battery at the
// moment it empties — capacity that was paid for but never delivered.
type StrandedCharge struct {
	// MeanAs is the expected stranded charge in ampere-seconds.
	MeanAs float64
	// FractionOfBound is MeanAs relative to the bound-well capacity
	// (1−c)·C; 0 means the battery used everything, 1 means the bound
	// well was untouched.
	FractionOfBound float64
}

// WorkloadPhase is one segment of a time-varying usage scenario: the
// workload in force for DurationSeconds (the final phase may be +Inf).
type WorkloadPhase struct {
	Workload        *Workload
	DurationSeconds float64
}
