package core

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"govpic/internal/particle"
)

// ckptFixture runs a small plasma a few steps and returns its v3
// checkpoint bytes together with the config that produced them.
func ckptFixture(t *testing.T) (Config, []byte) {
	t.Helper()
	cfg := periodicPlasma(16, 0.2, 0.05, 8, 1)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	s.Run(5)
	var buf bytes.Buffer
	if err := s.Checkpoint(&buf); err != nil {
		t.Fatal(err)
	}
	return cfg, buf.Bytes()
}

func TestCheckpointCRCDetectsBitFlip(t *testing.T) {
	cfg, ckpt := ckptFixture(t)
	// Flip one bit mid-file (inside the state payload, well past the
	// header) — structurally valid, numerically corrupt.
	flipped := append([]byte(nil), ckpt...)
	flipped[len(flipped)/2] ^= 0x10

	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	err = s.Restore(bytes.NewReader(flipped))
	if err == nil {
		t.Fatal("restore accepted a bit-flipped checkpoint")
	}
	if !strings.Contains(err.Error(), "CRC") {
		t.Fatalf("err = %v, want a CRC mismatch", err)
	}
}

func TestCheckpointRejectsTruncated(t *testing.T) {
	cfg, ckpt := ckptFixture(t)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{len(ckpt) * 3 / 4, len(ckpt) - 2, 7} {
		err := s.Restore(bytes.NewReader(ckpt[:cut]))
		if err == nil {
			t.Fatalf("restore accepted a checkpoint truncated to %d/%d bytes", cut, len(ckpt))
		}
		if !strings.Contains(err.Error(), "truncated") {
			t.Fatalf("truncation at %d: err = %v, want mention of truncation", cut, err)
		}
	}
}

func TestCheckpointReadsV1(t *testing.T) {
	cfg, ckpt := ckptFixture(t)
	// A v1 file is the v3 payload under the old magic, without the CRC
	// trailer and without the v3 layout section (for this 1-rank run:
	// px,py,pz plus three 2-entry cut arrays, 8 bytes each).
	magLen := len("GOVPIC-CKPT-3\n")
	layoutLen := 8 * (3 + 2 + 2 + 2)
	v1 := append([]byte("GOVPIC-CKPT-1\n"), ckpt[magLen:magLen+56]...)
	v1 = append(v1, ckpt[magLen+56+layoutLen:len(ckpt)-4]...)

	restore := func(data []byte) EnergySampleTotals {
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Restore(bytes.NewReader(data)); err != nil {
			t.Fatal(err)
		}
		s.Run(5)
		e := s.Energy()
		return EnergySampleTotals{e.Total, e.EField, e.BField}
	}
	if got, want := restore(v1), restore(ckpt); got != want {
		t.Fatalf("v1 restore diverged from v2: %+v vs %+v", got, want)
	}
}

// EnergySampleTotals is a comparable digest of an energy sample.
type EnergySampleTotals struct{ Total, EField, BField float64 }

func TestRestoreRejectsGeometryMismatch(t *testing.T) {
	cfg, ckpt := ckptFixture(t)

	// Different global cell count.
	wide := cfg
	wide.NX = 32
	s, err := New(wide)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Restore(bytes.NewReader(ckpt)); err == nil {
		t.Fatal("accepted checkpoint with different nx")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("nx mismatch: err = %v", err)
	}

	// Different rank count, same global grid.
	split := cfg
	split.NRanks = 2
	s2, err := New(split)
	if err != nil {
		t.Fatal(err)
	}
	if err := s2.Restore(bytes.NewReader(ckpt)); err == nil {
		t.Fatal("accepted checkpoint with different rank count")
	} else if !strings.Contains(err.Error(), "does not match") {
		t.Fatalf("rank mismatch: err = %v", err)
	}
}

// TestRestoreRejectsBadParticles: a checkpoint whose CRC is valid but
// which carries a particle no simulation could have written — a voxel
// outside the table (which would index out of range on the first
// push), a ghost voxel, an offset outside the cell, a non-finite
// momentum or weight — must fail Restore with an error instead of
// panicking in Step.
func TestRestoreRejectsBadParticles(t *testing.T) {
	cfg := periodicPlasma(16, 0.2, 0.05, 8, 1)
	for _, c := range []struct {
		name string
		bad  func(p *particle.Particle)
		want string
	}{
		{"voxel 1<<30", func(p *particle.Particle) { p.Voxel = 1 << 30 }, "interior"},
		{"negative voxel", func(p *particle.Particle) { p.Voxel = -3 }, "interior"},
		{"ghost voxel", func(p *particle.Particle) { p.Voxel = 0 }, "interior"},
		{"NaN momentum", func(p *particle.Particle) { p.Uy = float32(math.NaN()) }, "non-finite"},
		{"infinite weight", func(p *particle.Particle) { p.W = float32(math.Inf(1)) }, "non-finite"},
		{"offset 1.5", func(p *particle.Particle) { p.Dy = 1.5 }, "outside [-1, 1]"},
		{"offset below -1", func(p *particle.Particle) { p.Dz = -1.0000001 }, "outside [-1, 1]"},
		{"NaN offset", func(p *particle.Particle) { p.Dx = float32(math.NaN()) }, "outside [-1, 1]"},
	} {
		src, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		src.Run(2)
		buf := src.Ranks[0].Species[0].Buf
		p := buf.At(5)
		c.bad(&p)
		buf.Set(5, p)
		var ckpt bytes.Buffer
		if err := src.Checkpoint(&ckpt); err != nil {
			t.Fatal(err)
		}

		dst, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		err = dst.Restore(bytes.NewReader(ckpt.Bytes()))
		if err == nil {
			t.Fatalf("%s: restore accepted the particle", c.name)
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Fatalf("%s: err = %v, want mention of %q", c.name, err, c.want)
		}
	}
}
