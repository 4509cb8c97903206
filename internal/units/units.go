// Package units defines the typed physical quantities used throughout the
// simulator: byte counts, FLOP counts, bandwidths, and compute rates.
//
// All simulated time uses time.Duration directly; the helpers here convert
// between quantities and durations (e.g. how long a transfer of N bytes
// takes at bandwidth B).
package units

import (
	"fmt"
	"time"
)

// Bytes is a data size in bytes.
type Bytes int64

// Common byte sizes.
const (
	Byte Bytes = 1
	KB         = 1024 * Byte
	MB         = 1024 * KB
	GB         = 1024 * MB
)

// String renders the size with a binary-prefix unit, e.g. "1.50GB".
func (b Bytes) String() string {
	switch {
	case b >= GB:
		return fmt.Sprintf("%.2fGB", float64(b)/float64(GB))
	case b >= MB:
		return fmt.Sprintf("%.2fMB", float64(b)/float64(MB))
	case b >= KB:
		return fmt.Sprintf("%.2fKB", float64(b)/float64(KB))
	}
	return fmt.Sprintf("%dB", int64(b))
}

// GiB returns the size as a float count of gibibytes.
func (b Bytes) GiB() float64 { return float64(b) / float64(GB) }

// FLOPs counts floating-point operations (multiply and add count separately,
// so one MAC is 2 FLOPs, matching how GPU vendor peak numbers are quoted).
type FLOPs int64

// Common FLOP magnitudes.
const (
	KFLOPs FLOPs = 1e3
	MFLOPs FLOPs = 1e6
	GFLOPs FLOPs = 1e9
	TFLOPs FLOPs = 1e12
)

// String renders the count with a decimal-prefix unit, e.g. "3.87GFLOPs".
func (f FLOPs) String() string {
	switch {
	case f >= TFLOPs:
		return fmt.Sprintf("%.2fTFLOPs", float64(f)/float64(TFLOPs))
	case f >= GFLOPs:
		return fmt.Sprintf("%.2fGFLOPs", float64(f)/float64(GFLOPs))
	case f >= MFLOPs:
		return fmt.Sprintf("%.2fMFLOPs", float64(f)/float64(MFLOPs))
	case f >= KFLOPs:
		return fmt.Sprintf("%.2fKFLOPs", float64(f)/float64(KFLOPs))
	}
	return fmt.Sprintf("%dFLOPs", int64(f))
}

// Bandwidth is a data rate in bytes per second.
type Bandwidth float64

// Common bandwidths.
const (
	BytePerSec Bandwidth = 1
	KBPerSec             = 1024 * BytePerSec
	MBPerSec             = 1024 * KBPerSec
	GBPerSec             = 1024 * MBPerSec
)

// String renders the rate, e.g. "25.00GB/s".
func (bw Bandwidth) String() string {
	switch {
	case bw >= GBPerSec:
		return fmt.Sprintf("%.2fGB/s", float64(bw)/float64(GBPerSec))
	case bw >= MBPerSec:
		return fmt.Sprintf("%.2fMB/s", float64(bw)/float64(MBPerSec))
	case bw >= KBPerSec:
		return fmt.Sprintf("%.2fKB/s", float64(bw)/float64(KBPerSec))
	}
	return fmt.Sprintf("%.2fB/s", float64(bw))
}

// TransferTime returns how long moving b bytes takes at bandwidth bw.
// A zero or negative bandwidth yields zero duration so that callers never
// divide by zero; topology validation rejects such links up front.
func TransferTime(b Bytes, bw Bandwidth) time.Duration {
	if bw <= 0 || b <= 0 {
		return 0
	}
	sec := float64(b) / float64(bw)
	return time.Duration(sec * float64(time.Second))
}

// FLOPRate is a compute rate in FLOPs per second.
type FLOPRate float64

// Common compute rates.
const (
	FLOPPerSec  FLOPRate = 1
	GFLOPPerSec          = 1e9 * FLOPPerSec
	TFLOPPerSec          = 1e12 * FLOPPerSec
)

// String renders the rate, e.g. "15.70TFLOP/s".
func (r FLOPRate) String() string {
	switch {
	case r >= TFLOPPerSec:
		return fmt.Sprintf("%.2fTFLOP/s", float64(r)/float64(TFLOPPerSec))
	case r >= GFLOPPerSec:
		return fmt.Sprintf("%.2fGFLOP/s", float64(r)/float64(GFLOPPerSec))
	}
	return fmt.Sprintf("%.2fFLOP/s", float64(r))
}

// ComputeTime returns how long executing f FLOPs takes at rate r.
func ComputeTime(f FLOPs, r FLOPRate) time.Duration {
	if r <= 0 || f <= 0 {
		return 0
	}
	sec := float64(f) / float64(r)
	return time.Duration(sec * float64(time.Second))
}

// BytesOf returns n elements of elemSize bytes as a Bytes quantity.
func BytesOf(n int64, elemSize Bytes) Bytes { return Bytes(n) * elemSize }

// Float32Size is the storage size of one float32 value. All tensors in the
// modeled frameworks are single precision, matching the paper's setup.
const Float32Size Bytes = 4
