package enum

import (
	"strings"
	"testing"
)

type color uint8

var colors = New[color]("paint", "color", "red", "green")

func TestNamesRoundTrip(t *testing.T) {
	for v, want := range []string{"red", "green"} {
		c := color(v)
		if got := colors.String(c); got != want {
			t.Errorf("String(%d) = %q, want %q", v, got, want)
		}
		text, err := colors.MarshalText(c)
		if err != nil || string(text) != want {
			t.Errorf("MarshalText(%d) = %q, %v", v, text, err)
		}
		var back color
		if err := colors.UnmarshalText(&back, text); err != nil || back != c {
			t.Errorf("UnmarshalText(%q) = %d, %v", text, back, err)
		}
		if err := colors.Check(c); err != nil {
			t.Errorf("Check(%d): %v", v, err)
		}
	}
}

func TestNamesRejectOutsideTable(t *testing.T) {
	if got := colors.String(color(7)); got != "enum.color(7)" {
		t.Errorf("String(7) = %q", got)
	}
	if err := colors.Check(color(7)); err == nil || err.Error() != "paint: unknown color 7" {
		t.Errorf("Check(7) = %v", err)
	}
	if _, err := colors.MarshalText(color(2)); err == nil {
		t.Error("out-of-range value marshaled")
	}
	back := color(1)
	err := colors.UnmarshalText(&back, []byte("Red"))
	if err == nil || !strings.HasPrefix(err.Error(), `paint: unknown color "Red"`) || !strings.Contains(err.Error(), "red, green") {
		t.Errorf("UnmarshalText(Red) = %v", err)
	}
	if back != 1 {
		t.Errorf("failed decode overwrote the value: %d", back)
	}
}
