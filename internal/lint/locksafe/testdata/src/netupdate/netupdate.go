// Test package for the locksafe analyzer, mirroring the server shapes in
// internal/netupdate: counters and caches guarded by a struct mutex.
package netupdate

import "sync"

type server struct {
	mu     sync.Mutex
	served int64
	cache  map[uint32][]byte

	// config is written before the value is shared and never under the
	// lock, so it is not lock-protected state.
	config string
}

// Locked writes via the defer idiom.
func (s *server) Record(n int64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.served += n
}

// Locked map write with an inline Lock/Unlock pair.
func (s *server) Put(crc uint32, enc []byte) {
	s.mu.Lock()
	s.cache[crc] = enc
	s.mu.Unlock()
}

// The same counter written without the mutex races Record.
func (s *server) Reset() {
	s.served = 0 // want `written in Reset without the mutex`
}

// A field never written under the lock is plain state, not a finding.
func (s *server) SetConfig(c string) {
	s.config = c
}

type resource struct {
	mu   sync.RWMutex
	body []byte
}

func (r *resource) Update(body []byte) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.body = append([]byte(nil), body...)
}

// RLock licenses reads, not writes.
func (r *resource) Trim(n int) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.body = r.body[:n] // want `written in Trim without the mutex`
}
