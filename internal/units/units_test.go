package units

import (
	"math"
	"testing"
	"testing/quick"
)

func almostEq(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestCurrentConversions(t *testing.T) {
	tests := []struct {
		name string
		c    Current
		amps float64
		ma   float64
	}{
		{"one amp", Amperes(1), 1, 1000},
		{"paper load", Amperes(0.96), 0.96, 960},
		{"idle draw", Milliamps(8), 0.008, 8},
		{"send draw", Milliamps(200), 0.2, 200},
		{"zero", Amperes(0), 0, 0},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.c.Amperes(); !almostEq(got, tt.amps, 1e-12) {
				t.Errorf("Amperes() = %v, want %v", got, tt.amps)
			}
			if got := tt.c.Milliamps(); !almostEq(got, tt.ma, 1e-12) {
				t.Errorf("Milliamps() = %v, want %v", got, tt.ma)
			}
		})
	}
}

func TestChargeConversions(t *testing.T) {
	tests := []struct {
		name string
		q    Charge
		as   float64
		mah  float64
	}{
		{"paper capacity", MilliampHours(2000), 7200, 2000},
		{"cell phone", MilliampHours(800), 2880, 800},
		{"small pack", MilliampHours(500), 1800, 500},
		{"one Ah", AmpHours(1), 3600, 1000},
		{"direct As", Coulombs(4500), 4500, 1250},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.q.AmpereSeconds(); !almostEq(got, tt.as, 1e-12) {
				t.Errorf("AmpereSeconds() = %v, want %v", got, tt.as)
			}
			if got := tt.q.MilliampHours(); !almostEq(got, tt.mah, 1e-12) {
				t.Errorf("MilliampHours() = %v, want %v", got, tt.mah)
			}
		})
	}
}

func TestDurationConversions(t *testing.T) {
	if got := Minutes(90).Seconds(); got != 5400 {
		t.Errorf("Minutes(90).Seconds() = %v, want 5400", got)
	}
	if got := Hours(1).Minutes(); got != 60 {
		t.Errorf("Hours(1).Minutes() = %v, want 60", got)
	}
	if got := Seconds(15000).Hours(); !almostEq(got, 15000.0/3600, 1e-12) {
		t.Errorf("Seconds(15000).Hours() = %v", got)
	}
}

func TestRateConversions(t *testing.T) {
	// The paper's k = 4.5e-5 /s is 0.162 /h (4.5e-5·3600).
	if got := PerHour(0.162).PerSecond(); !almostEq(got, 4.5e-5, 1e-12) {
		t.Errorf("PerHour(0.162).PerSecond() = %v, want 4.5e-5", got)
	}
	if got := PerHour(6).PerSecond(); !almostEq(got, 6.0/3600, 1e-12) {
		t.Errorf("PerHour(6).PerSecond() = %v", got)
	}
}

func TestChargeRoundTripProperty(t *testing.T) {
	f := func(mah float64) bool {
		if math.IsNaN(mah) || math.IsInf(mah, 0) {
			return true
		}
		return almostEq(MilliampHours(mah).MilliampHours(), mah, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestDurationRoundTripProperty(t *testing.T) {
	f := func(h float64) bool {
		if math.IsNaN(h) || math.IsInf(h, 0) {
			return true
		}
		return almostEq(Hours(h).Hours(), h, 1e-12) && almostEq(Minutes(h).Minutes(), h, 1e-12)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestParseCharge(t *testing.T) {
	tests := []struct {
		in      string
		want    float64 // ampere-seconds
		wantErr bool
	}{
		{"800mAh", 2880, false},
		{"7200As", 7200, false},
		{"2Ah", 7200, false},
		{" 500 mAh ", 1800, false},
		{"1.5e3 As", 1500, false},
		{"800", 0, true},
		{"mAh", 0, true},
		{"800furlongs", 0, true},
		{"", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseCharge(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseCharge(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && !almostEq(got.AmpereSeconds(), tt.want, 1e-12) {
				t.Errorf("ParseCharge(%q) = %v As, want %v", tt.in, got.AmpereSeconds(), tt.want)
			}
		})
	}
}

func TestParseCurrent(t *testing.T) {
	tests := []struct {
		in      string
		want    float64 // ampere
		wantErr bool
	}{
		{"0.96A", 0.96, false},
		{"200mA", 0.2, false},
		{"8 mA", 0.008, false},
		{"0.96", 0, true},
		{"0.96V", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseCurrent(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseCurrent(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && !almostEq(got.Amperes(), tt.want, 1e-12) {
				t.Errorf("ParseCurrent(%q) = %v A, want %v", tt.in, got.Amperes(), tt.want)
			}
		})
	}
}

func TestParseDuration(t *testing.T) {
	tests := []struct {
		in      string
		want    float64 // seconds
		wantErr bool
	}{
		{"90min", 5400, false},
		{"2h", 7200, false},
		{"15000s", 15000, false},
		{"10 m", 600, false},
		{"1 hr", 3600, false},
		{"90", 0, true},
		{"90parsecs", 0, true},
	}
	for _, tt := range tests {
		t.Run(tt.in, func(t *testing.T) {
			got, err := ParseDuration(tt.in)
			if (err != nil) != tt.wantErr {
				t.Fatalf("ParseDuration(%q) error = %v, wantErr %v", tt.in, err, tt.wantErr)
			}
			if err == nil && !almostEq(got.Seconds(), tt.want, 1e-12) {
				t.Errorf("ParseDuration(%q) = %v s, want %v", tt.in, got.Seconds(), tt.want)
			}
		})
	}
}

func TestStringFormats(t *testing.T) {
	tests := []struct {
		got  string
		want string
	}{
		{Amperes(0.96).String(), "0.96A"},
		{Milliamps(8).String(), "8mA"},
		{MilliampHours(800).String(), "2880As"},
		{MilliampHours(10).String(), "10mAh"},
		{Seconds(15000).String(), "4.16667h"},
		{Minutes(90).String(), "90min"},
		{Seconds(30).String(), "30s"},
	}
	for _, tt := range tests {
		if tt.got != tt.want {
			t.Errorf("String() = %q, want %q", tt.got, tt.want)
		}
	}
}
