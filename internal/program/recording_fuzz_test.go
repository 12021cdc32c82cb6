package program_test

import (
	"testing"

	"valuespec/internal/emu"
	"valuespec/internal/program"
	"valuespec/internal/trace"
)

// fuzzBudget bounds the emulator on fuzzed programs, most of which never
// halt on their own.
const fuzzBudget = 10000

// FuzzRecordingRoundTrip checks the compact trace recording against the
// emulator on arbitrary assembled programs: replaying the recording must
// give back trace.Collect of the same program field for field, including
// the streams that end in an emulator fault.
func FuzzRecordingRoundTrip(f *testing.F) {
	for _, s := range program.AssembleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := program.Assemble(src)
		if err != nil {
			return
		}
		ref, err := emu.New(p, emu.WithBudget(fuzzBudget))
		if err != nil {
			return // e.g. no code; the assembler fuzz covers validation
		}
		want := trace.Collect(ref, 0)
		m, err := emu.New(p, emu.WithBudget(fuzzBudget))
		if err != nil {
			t.Fatal(err)
		}
		rec, err := trace.NewRecording(p.Code, m)
		if err != nil {
			t.Fatalf("recording the emulator's own stream: %v", err)
		}
		if (m.Err() == nil) != (ref.Err() == nil) {
			t.Fatalf("fault differs between runs: %v vs %v", m.Err(), ref.Err())
		}
		got := trace.Collect(rec.Cursor(), 0)
		if len(got) != len(want) || rec.Len() != int64(len(want)) {
			t.Fatalf("replayed %d records (Len %d), emulator produced %d", len(got), rec.Len(), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("record %d differs\nemulator: %+v\nreplay:   %+v", i, want[i], got[i])
			}
		}
	})
}
