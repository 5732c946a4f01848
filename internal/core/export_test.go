package core

// NumClasses reports how many weighted slots Run iterates s's
// connections as when unhooked from a rate vector equal within every
// run of identical connections, or 0 when Run iterates every
// connection whatever the rates.
func NumClasses(s *System) int {
	if s.classes == nil {
		return 0
	}
	return len(s.classes.start) - 1
}
