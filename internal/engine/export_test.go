package engine

// unregisterSelectForTest removes a technique registered by a test so the
// global registry stays exactly the built-in set for every other test.
func unregisterSelectForTest(name string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	delete(reg.selects, canonKey(name))
}

func unregisterJoinForTest(name string) {
	reg.mu.Lock()
	defer reg.mu.Unlock()
	delete(reg.joins, canonKey(name))
}
