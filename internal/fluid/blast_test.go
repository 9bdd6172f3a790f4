package fluid

import (
	"testing"

	"repro/internal/matching"
	"repro/internal/routing"
	"repro/internal/schedule"
)

func TestBlastRadiusVLBIsGlobal(t *testing.T) {
	// In a flat VLB design, any node failure touches flows between every
	// pair (every node is an intermediate for everyone).
	n := 16
	v, _ := routing.NewVLB(matching.RoundRobin(n))
	b, err := NodeBlastRadius(n, v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b < 0.999 {
		t.Fatalf("flat VLB node blast radius = %f, want ~1", b)
	}
}

func TestBlastRadiusSORNIsModular(t *testing.T) {
	// In SORN, a node failure only affects pairs whose routing touches
	// that node's clique (as source, destination, or landing) — far less
	// than the flat design's 100%.
	s, err := schedule.BuildSORN(schedule.SORNConfig{N: 64, Nc: 8, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	router := routing.NewSORN(s)
	b, err := NodeBlastRadius(64, router, 3)
	if err != nil {
		t.Fatal(err)
	}
	v, _ := routing.NewVLB(matching.RoundRobin(64))
	flat, err := NodeBlastRadius(64, v, 3)
	if err != nil {
		t.Fatal(err)
	}
	if b >= flat/2 {
		t.Fatalf("SORN blast radius %f not much below flat %f", b, flat)
	}
}

func TestLinkBlastRadiusIntraVsInter(t *testing.T) {
	s, err := schedule.BuildSORN(schedule.SORNConfig{N: 64, Nc: 8, Q: 3})
	if err != nil {
		t.Fatal(err)
	}
	router := routing.NewSORN(s)
	// An intra-clique link (0->1) affects only pairs involving clique 0.
	intra, err := LinkBlastRadius(64, router, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if intra > 0.3 {
		t.Fatalf("intra link blast radius = %f, too large", intra)
	}
	if intra == 0 {
		t.Fatal("intra link blast radius should be positive")
	}
}

func TestBlastRadiusDirectIsMinimal(t *testing.T) {
	// Direct routing: a failed link affects exactly one pair.
	n := 8
	d, _ := routing.NewDirect(matching.RoundRobin(n))
	b, err := LinkBlastRadius(n, d, 0, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 / float64(n*(n-1))
	if b != want {
		t.Fatalf("direct link blast radius = %f, want %f", b, want)
	}
}

func TestBlastRadiusErrors(t *testing.T) {
	d, _ := routing.NewDirect(matching.RoundRobin(4))
	if _, err := LinkBlastRadius(1, d, 0, 1); err == nil {
		t.Error("n=1 accepted")
	}
}
