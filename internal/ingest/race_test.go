//go:build race

package ingest

const raceEnabled = true
