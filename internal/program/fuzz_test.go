package program

import (
	"bytes"
	"reflect"
	"testing"
)

// AssembleSeeds is the FuzzAssemble seed corpus. It is exported to the
// package's external tests, which fuzz the emulator and trace recordings
// over the same programs.
var AssembleSeeds = []string{
	"halt",
	"ldi r1, 5\nadd r2, r1, r1\nhalt",
	"loop: addi r1, r1, -1\nbne r1, r0, loop\nhalt",
	".name x\n.word 10 42\nld r1, 8(r2)\nst r1, (r2)\nhalt",
	"jal r31, f\nhalt\nf: jr r31",
	"; comment only",
	".words 0 1 2 3",
	"label:halt",
	"ldi r1, 0x7fffffffffffffff\nhalt",
}

// FuzzAssemble checks the assembler never panics and that anything it
// accepts disassembles and revalidates.
func FuzzAssemble(f *testing.F) {
	for _, s := range AssembleSeeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		p, err := Assemble(src)
		if err != nil {
			return // rejection is fine; panics are not
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("accepted program fails validation: %v", err)
		}
		_ = p.Disassemble()
	})
}

// FuzzReadBinary checks the binary loader never panics on arbitrary input
// and that accepted programs round-trip.
func FuzzReadBinary(f *testing.F) {
	p := NewBuilder("seed")
	p.Ldi(1, 42)
	p.Label("l")
	p.Beq(1, 0, "l")
	p.Halt()
	var buf bytes.Buffer
	if err := p.MustBuild().WriteBinary(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Add([]byte("VSPC"))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		prog, err := ReadBinary(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := prog.WriteBinary(&out); err != nil {
			t.Fatalf("accepted program fails to serialize: %v", err)
		}
		again, err := ReadBinary(&out)
		if err != nil {
			t.Fatalf("re-read failed: %v", err)
		}
		if !reflect.DeepEqual(prog.Code, again.Code) {
			t.Fatal("round trip changed the code image")
		}
	})
}
