package jsontype

// NewScan returns the scan of one JSON document through a scanner of its
// own, outside the pool, so that tests can carry scanner state from one
// document to the next.
func NewScan() func(doc []byte) (*Type, error) {
	return scannerPool.New().(*typeScanner).one
}

// SpeculationHits scans docs through one scanner of its own and returns
// how many objects it scanned and how many of them took their type from
// the shape prediction.
func SpeculationHits(docs [][]byte) (objects, hits int, err error) {
	s := scannerPool.New().(*typeScanner)
	for _, doc := range docs {
		if _, err := s.one(doc); err != nil {
			return 0, 0, err
		}
	}
	return s.objects, s.hits, nil
}
