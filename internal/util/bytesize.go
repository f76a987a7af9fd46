// Package util provides small shared helpers: byte-size formatting,
// summary statistics, and a deterministic splittable random number
// generator used by the workload generators and the simulator.
package util

import (
	"fmt"
	"math"
	"strings"
)

// Byte size units.
const (
	KB int64 = 1 << (10 * (iota + 1))
	MB
	GB
	TB
)

// FormatBytes renders n as a human-readable byte count ("2.70GB").
func FormatBytes(n int64) string {
	switch {
	case n >= TB:
		return fmt.Sprintf("%.2fTB", float64(n)/float64(TB))
	case n >= GB:
		return fmt.Sprintf("%.2fGB", float64(n)/float64(GB))
	case n >= MB:
		return fmt.Sprintf("%.2fMB", float64(n)/float64(MB))
	case n >= KB:
		return fmt.Sprintf("%.2fKB", float64(n)/float64(KB))
	}
	return fmt.Sprintf("%dB", n)
}

// ParseBytes parses strings like "64KB", "2.7GB" or "512" into a byte
// count. It accepts the suffixes B, KB, MB, GB and TB (case-insensitive)
// and rejects sizes that are negative, NaN, infinite or beyond int64.
func ParseBytes(s string) (int64, error) {
	var value float64
	var unit string
	n, err := fmt.Sscanf(s, "%f%s", &value, &unit)
	if err != nil && n < 1 {
		return 0, fmt.Errorf("util: cannot parse byte size %q", s)
	}
	mult := int64(1)
	switch {
	case unit == "" || strings.EqualFold(unit, "B"):
		mult = 1
	case strings.EqualFold(unit, "KB") || strings.EqualFold(unit, "K"):
		mult = KB
	case strings.EqualFold(unit, "MB") || strings.EqualFold(unit, "M"):
		mult = MB
	case strings.EqualFold(unit, "GB") || strings.EqualFold(unit, "G"):
		mult = GB
	case strings.EqualFold(unit, "TB") || strings.EqualFold(unit, "T"):
		mult = TB
	default:
		return 0, fmt.Errorf("util: unknown byte unit %q in %q", unit, s)
	}
	v := value * float64(mult)
	// NaN fails both comparisons; 2^63 itself does not fit in an int64.
	if !(v >= 0 && v < math.MaxInt64) {
		return 0, fmt.Errorf("util: byte size %q out of range", s)
	}
	return int64(v), nil
}
