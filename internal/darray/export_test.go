package darray

// SectionMemoLen reports how many section views a has memoized, for the
// external tests that compile kf loop headers over darray arrays.
func SectionMemoLen(a *Array) int { return len(a.secs) }
