package entity

// Dict interns key names to dense integer ids.
//
// A Dict is single-writer: ID mutates and must only be called from one
// goroutine at a time, so every partition point builds its own (the
// staged pipeline numbers its features over path handles, in the same
// first-seen order, without a Dict); code that wants to hand a
// dictionary to concurrent readers while continuing to intern should pass
// a Snapshot instead.
type Dict struct {
	ids   map[string]int
	names []string
}

// NewDict returns an empty dictionary.
func NewDict() *Dict { return &Dict{ids: map[string]int{}} }

// ID returns the id for name, assigning the next id on first use.
// Mutates: single-writer only.
func (d *Dict) ID(name string) int {
	if id, ok := d.ids[name]; ok {
		return id
	}
	id := len(d.names)
	d.ids[name] = id
	d.names = append(d.names, name)
	return id
}

// Lookup returns the id for name without assigning, with ok=false if absent.
func (d *Dict) Lookup(name string) (int, bool) {
	id, ok := d.ids[name]
	return id, ok
}

// Name returns the name for id.
func (d *Dict) Name(id int) string { return d.names[id] }

// Len returns the number of interned names.
func (d *Dict) Len() int { return len(d.names) }

// Snapshot returns an immutable copy of the dictionary's current state,
// safe for concurrent use by any number of readers regardless of what the
// writer does to d afterwards.
func (d *Dict) Snapshot() Snapshot {
	ids := make(map[string]int, len(d.ids))
	for k, v := range d.ids {
		ids[k] = v
	}
	return Snapshot{ids: ids, names: append([]string(nil), d.names...)}
}

// Snapshot is a read-only view of a Dict at one point in time.
type Snapshot struct {
	ids   map[string]int
	names []string
}

// Lookup returns the id for name, with ok=false if the name was not
// interned when the snapshot was taken.
func (s Snapshot) Lookup(name string) (int, bool) {
	id, ok := s.ids[name]
	return id, ok
}

// Name returns the name for id.
func (s Snapshot) Name(id int) string { return s.names[id] }

// Len returns the number of interned names in the snapshot.
func (s Snapshot) Len() int { return len(s.names) }
