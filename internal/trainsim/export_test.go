package trainsim

// SetFreshStats makes every planner call derive its workload profile
// afresh (true) or reuse a matching Config.Stats (false, the default), for
// the differential tests in package trainsim_test.
func SetFreshStats(on bool) { freshStats.Store(on) }
