package core

// SplitMix64 is the splitmix64 finalizing mixer (Steele, Lea & Flood):
// it adds the golden-ratio increment to x and scrambles the result.
// Successive inputs map to well-distributed outputs, so the one
// function serves as a sequential generator step (feed it a counter
// that advances by the increment) and as a counter-based hash (feed it
// seed + index, any index in any order).
func SplitMix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}
