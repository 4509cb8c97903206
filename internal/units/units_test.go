package units

import (
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestBytesString(t *testing.T) {
	cases := []struct {
		in   Bytes
		want string
	}{
		{0, "0B"},
		{512, "512B"},
		{KB, "1.00KB"},
		{1536, "1.50KB"},
		{MB, "1.00MB"},
		{3 * GB / 2, "1.50GB"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Bytes(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestFLOPsString(t *testing.T) {
	cases := []struct {
		in   FLOPs
		want string
	}{
		{500, "500FLOPs"},
		{2 * KFLOPs, "2.00KFLOPs"},
		{3 * GFLOPs / 2, "1.50GFLOPs"},
		{TFLOPs, "1.00TFLOPs"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("FLOPs(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTransferTime(t *testing.T) {
	// 1 GB at 1 GB/s takes exactly one second.
	if got := TransferTime(GB, GBPerSec); got != time.Second {
		t.Errorf("TransferTime(1GB, 1GB/s) = %v, want 1s", got)
	}
	// 25 GB/s moves 100 MB in ~4 ms (binary prefixes cancel exactly).
	got := TransferTime(100*MB, 25*GBPerSec)
	want := time.Duration(float64(100*MB) / float64(25*GBPerSec) * float64(time.Second))
	if got != want {
		t.Errorf("TransferTime = %v, want %v", got, want)
	}
}

func TestTransferTimeDegenerate(t *testing.T) {
	if got := TransferTime(GB, 0); got != 0 {
		t.Errorf("zero bandwidth should give 0, got %v", got)
	}
	if got := TransferTime(0, GBPerSec); got != 0 {
		t.Errorf("zero bytes should give 0, got %v", got)
	}
	if got := TransferTime(-5, GBPerSec); got != 0 {
		t.Errorf("negative bytes should give 0, got %v", got)
	}
}

func TestComputeTime(t *testing.T) {
	if got := ComputeTime(TFLOPs, TFLOPPerSec); got != time.Second {
		t.Errorf("ComputeTime(1T, 1T/s) = %v, want 1s", got)
	}
	if got := ComputeTime(0, TFLOPPerSec); got != 0 {
		t.Errorf("zero work should give 0, got %v", got)
	}
	if got := ComputeTime(TFLOPs, 0); got != 0 {
		t.Errorf("zero rate should give 0, got %v", got)
	}
}

func TestBytesOf(t *testing.T) {
	if got := BytesOf(1000, Float32Size); got != 4000 {
		t.Errorf("BytesOf(1000, 4) = %d, want 4000", got)
	}
}

func TestGiB(t *testing.T) {
	if got := (16 * GB).GiB(); got != 16 {
		t.Errorf("16GB.GiB() = %v, want 16", got)
	}
}

// Property: transfer time scales linearly in bytes and inversely in
// bandwidth (within float tolerance).
func TestTransferTimeLinearity(t *testing.T) {
	f := func(kb uint16) bool {
		b := Bytes(kb) * KB
		t1 := TransferTime(b, 10*GBPerSec)
		t2 := TransferTime(2*b, 10*GBPerSec)
		t4 := TransferTime(b, 20*GBPerSec)
		// Doubling size doubles time; doubling bandwidth halves it.
		okDouble := math.Abs(float64(t2)-2*float64(t1)) <= 2
		okHalf := math.Abs(2*float64(t4)-float64(t1)) <= 2
		return okDouble && okHalf
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBandwidthString(t *testing.T) {
	if got := (25 * GBPerSec).String(); got != "25.00GB/s" {
		t.Errorf("got %q", got)
	}
	if got := (MBPerSec / 2).String(); got != "512.00KB/s" {
		t.Errorf("got %q", got)
	}
}

func TestFLOPRateString(t *testing.T) {
	if got := (15.7 * TFLOPPerSec).String(); got != "15.70TFLOP/s" {
		t.Errorf("got %q", got)
	}
}
