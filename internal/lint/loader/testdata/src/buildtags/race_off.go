//go:build !race

package buildtags

const raceOn = false
