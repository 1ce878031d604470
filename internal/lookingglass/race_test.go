//go:build race

package lookingglass

const raceEnabled = true
