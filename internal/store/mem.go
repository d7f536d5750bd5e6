package store

import "sync"

// Mem is the in-memory KV backend: a map plus the sorted key index for
// ordered prefix scans. It exists for tests and for running joinserve
// with store semantics but no disk (-store mem); it offers the same
// interface and ordering guarantees as the log backend, minus durability.
type Mem struct {
	cnt counters

	mu     sync.Mutex
	m      map[string][]byte
	keys   keyIndex
	closed bool
}

// NewMem returns an empty in-memory backend.
func NewMem() *Mem {
	return &Mem{m: make(map[string][]byte)}
}

// Get implements KV.
func (s *Mem) Get(key []byte) ([]byte, bool, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil, false, ErrClosed
	}
	s.cnt.gets.Add(1)
	v, ok := s.m[string(key)]
	if !ok {
		s.cnt.getMisses.Add(1)
		return nil, false, nil
	}
	return append([]byte(nil), v...), true, nil
}

// Put implements KV.
func (s *Mem) Put(key, value []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.cnt.puts.Add(1)
	s.putLocked(key, value)
	return nil
}

func (s *Mem) putLocked(key, value []byte) {
	k := string(key)
	if _, ok := s.m[k]; !ok {
		s.keys.insert(k)
	}
	s.m[k] = append([]byte(nil), value...)
}

// Delete implements KV.
func (s *Mem) Delete(key []byte) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	s.cnt.deletes.Add(1)
	s.deleteLocked(key)
	return nil
}

func (s *Mem) deleteLocked(key []byte) {
	k := string(key)
	if _, ok := s.m[k]; ok {
		delete(s.m, k)
		s.keys.delete(k)
	}
}

// Batch implements KV: all operations apply under one lock acquisition.
func (s *Mem) Batch(ops []Op) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	for _, op := range ops {
		if op.Delete {
			s.cnt.deletes.Add(1)
			s.deleteLocked(op.Key)
		} else {
			s.cnt.puts.Add(1)
			s.putLocked(op.Key, op.Value)
		}
	}
	return nil
}

// Scan implements KV: ascending key order within the prefix.
func (s *Mem) Scan(prefix []byte, fn func(key, value []byte) bool) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return ErrClosed
	}
	s.cnt.scans.Add(1)
	keys := s.keys.withPrefix(string(prefix))
	s.mu.Unlock()
	for _, k := range keys {
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			return ErrClosed
		}
		v, ok := s.m[k]
		s.mu.Unlock()
		if !ok {
			continue
		}
		s.cnt.scanned.Add(1)
		if !fn([]byte(k), v) {
			break
		}
	}
	return nil
}

// Sync implements KV; the memory backend has nothing to flush.
func (s *Mem) Sync() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	return nil
}

// Stats implements KV.
func (s *Mem) Stats() Stats {
	st := s.cnt.snapshot()
	s.mu.Lock()
	st.Keys = int64(len(s.m))
	for k, v := range s.m {
		st.LiveBytes += int64(len(k) + len(v))
	}
	s.mu.Unlock()
	return st
}

// Close implements KV.
func (s *Mem) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	return nil
}
