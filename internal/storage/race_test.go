//go:build race

package storage

const raceEnabled = true
