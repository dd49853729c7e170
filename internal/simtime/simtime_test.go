package simtime

import (
	"testing"
	"testing/quick"
	"time"
)

func TestTimeArithmetic(t *testing.T) {
	var t0 Time
	t1 := t0.Add(3 * time.Microsecond)
	if got := t1.Sub(t0); got != 3*time.Microsecond {
		t.Fatalf("Sub = %v, want 3µs", got)
	}
	if !t1.After(t0) || t0.After(t1) {
		t.Fatalf("After ordering wrong: t0=%v t1=%v", t0, t1)
	}
}

func TestTimeString(t *testing.T) {
	if got := Time(1500).String(); got != "1.5µs" {
		t.Fatalf("String = %q, want 1.5µs", got)
	}
	if got := Never.String(); got != "never" {
		t.Fatalf("Never.String = %q", got)
	}
}

func TestRateString(t *testing.T) {
	cases := []struct {
		r    Rate
		want string
	}{
		{100 * Gbps, "100Gbps"},
		{40 * Mbps, "40Mbps"},
		{9 * Kbps, "9Kbps"},
		{123, "123bps"},
	}
	for _, c := range cases {
		if got := c.r.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.r), got, c.want)
		}
	}
}

func TestTransmit(t *testing.T) {
	// 1250 bytes at 100Gbps = 10000 bits / 1e11 bps = 100ns.
	if got := (100 * Gbps).Transmit(int64(1250)); got != 100*time.Nanosecond {
		t.Fatalf("Transmit = %v, want 100ns", got)
	}
	// 1 MiB at 1Gbps = 8*2^20 / 1e9 s = 8.388608ms
	if got := (1 * Gbps).Transmit(int64(1 << 20)); got != 8388608*time.Nanosecond {
		t.Fatalf("Transmit = %v, want 8.388608ms", got)
	}
	if got := Rate(0).Transmit(int64(1)); got <= 0 {
		t.Fatalf("zero-rate Transmit should be huge, got %v", got)
	}
}

func TestBytesIn(t *testing.T) {
	// 100Gbps for 1µs = 12500 bytes.
	if got := (100 * Gbps).bytesIn(time.Microsecond); got != 12500 {
		t.Fatalf("BytesIn = %d, want 12500", got)
	}
	if got := (100 * Gbps).bytesIn(0); got != 0 {
		t.Fatalf("BytesIn(0) = %d, want 0", got)
	}
	if got := Rate(0).bytesIn(time.Second); got != 0 {
		t.Fatalf("zero rate BytesIn = %d, want 0", got)
	}
}

func TestScale(t *testing.T) {
	if got := (100 * Gbps).Scale(1, 2); got != 50*Gbps {
		t.Fatalf("Scale = %v, want 50Gbps", got)
	}
	if got := (100 * Gbps).Scale(3, 0); got != 100*Gbps {
		t.Fatalf("Scale with zero den should be identity, got %v", got)
	}
}

// Property: Transmit then BytesIn round-trips within one byte of rounding
// error for realistic sizes and rates.
func TestTransmitBytesInRoundTrip(t *testing.T) {
	f := func(sz uint16, rsel uint8) bool {
		size := int(sz)%65536 + 1
		rates := []Rate{1 * Gbps, 10 * Gbps, 25 * Gbps, 40 * Gbps, 100 * Gbps}
		r := rates[int(rsel)%len(rates)]
		d := r.Transmit(int64(size))
		back := r.bytesIn(d)
		// Truncating to whole nanoseconds loses up to one nanosecond's
		// worth of bytes (r/8e9), plus one byte of integer rounding.
		quantum := int64(r)/(8*1e9) + 1
		diff := back - int64(size)
		return diff >= -quantum && diff <= quantum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: Transmit is additive — transmitting a+b takes the same time as
// a then b, within 1ns rounding.
func TestTransmitAdditive(t *testing.T) {
	f := func(a, b uint16) bool {
		r := 100 * Gbps
		whole := r.Transmit(int64(a) + int64(b))
		split := r.Transmit(int64(a)) + r.Transmit(int64(b))
		diff := whole - split
		return diff >= -time.Nanosecond && diff <= time.Nanosecond
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// bytesIn returns how many whole bytes rate r moves in duration d: the
// inverse of Transmit the round-trip property checks it against.
func (r Rate) bytesIn(d Duration) int64 {
	if d <= 0 || r <= 0 {
		return 0
	}
	// bytes = r/8 * seconds = r * d_ns / (8 * 1e9)
	return int64(r) / 8 * int64(d) / int64(time.Second)
}
