//go:build !race

package lookingglass

const raceEnabled = false
