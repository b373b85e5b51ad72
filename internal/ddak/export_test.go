package ddak

// Hooks for the external delta differential (delta_match_test.go), which
// replays the drift bench row's instance through trainsim: an import the
// package ddak tests cannot make without a cycle.
var (
	PlaceItemsDeltaOracle = placeItemsDeltaOracle
	DeltaMismatch         = deltaMismatch
)
