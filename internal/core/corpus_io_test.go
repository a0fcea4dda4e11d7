package core

import (
	"errors"
	"io"
	"strings"
	"testing"

	"ozz/internal/modules"
	"ozz/internal/syzlang"
)

// corpusProgA/corpusProgB are two distinct valid watchqueue programs used
// as corpus fixtures throughout the adversarial decode tests.
const (
	corpusProgA = "r0 = wq_create()\nwq_pipe_read(r0)\n"
	corpusProgB = "r0 = wq_create()\nwq_post_notification(r0, 0x4)\nwq_pipe_read(r0)\n"
)

// errAfterReader yields its payload, then fails with err — a truncated
// stream (the transport died mid-corpus).
type errAfterReader struct {
	data string
	err  error
	off  int
}

func (r *errAfterReader) Read(p []byte) (int, error) {
	if r.off < len(r.data) {
		n := copy(p, r.data[r.off:])
		r.off += n
		return n, nil
	}
	return 0, r.err
}

func TestDecodeProgramsEmptyStream(t *testing.T) {
	target := modules.Target("watchqueue")
	for _, src := range []string{"", "\n\n\n", "   \n\t\n"} {
		progs, err := DecodePrograms(strings.NewReader(src), target)
		if !errors.Is(err, ErrEmptyCorpus) {
			t.Errorf("DecodePrograms(%q) err = %v, want ErrEmptyCorpus", src, err)
		}
		if len(progs) != 0 {
			t.Errorf("DecodePrograms(%q) returned %d programs from nothing", src, len(progs))
		}
	}
}

func TestDecodeProgramsCorruptedRecord(t *testing.T) {
	target := modules.Target("watchqueue")
	src := corpusProgA + "\n@@ definitely not syzlang @@\n\n" + corpusProgB
	progs, err := DecodePrograms(strings.NewReader(src), target)
	var ce *CorpusError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorpusError", err)
	}
	if ce.Block != 2 {
		t.Errorf("CorpusError.Block = %d, want 2", ce.Block)
	}
	if !strings.Contains(ce.Src, "not syzlang") {
		t.Errorf("CorpusError.Src = %q, want the offending block", ce.Src)
	}
	// Partial corpus: both valid blocks around the corruption survive.
	if len(progs) != 2 {
		t.Fatalf("got %d programs, want the 2 valid ones", len(progs))
	}
}

func TestDecodeProgramsTruncatedStream(t *testing.T) {
	target := modules.Target("watchqueue")
	cause := errors.New("connection reset")
	// The stream dies mid-way through the second program's block.
	r := &errAfterReader{data: corpusProgA + "\nr0 = wq_create()\nwq_post_notification(r0,", err: cause}
	progs, err := DecodePrograms(r, target)
	var ce *CorpusError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorpusError", err)
	}
	if !errors.Is(err, cause) {
		t.Errorf("typed error does not unwrap to the transport cause: %v", err)
	}
	// Everything fully received before the failure is still usable.
	if len(progs) != 1 {
		t.Errorf("got %d programs, want 1 complete block before truncation", len(progs))
	}
}

func TestDecodeProgramsOverlongLine(t *testing.T) {
	target := modules.Target("watchqueue")
	// A single 2 MiB line overflows the scanner's 1 MiB cap: typed error,
	// no panic.
	src := corpusProgA + "\n" + strings.Repeat("x", 2<<20)
	progs, err := DecodePrograms(strings.NewReader(src), target)
	var ce *CorpusError
	if !errors.As(err, &ce) {
		t.Fatalf("err = %v, want *CorpusError", err)
	}
	if len(progs) != 1 {
		t.Errorf("got %d programs, want the 1 block before the bomb", len(progs))
	}
}

func TestDecodeProgramsDedupsByKey(t *testing.T) {
	target := modules.Target("watchqueue")
	src := corpusProgA + "\n" + corpusProgB + "\n" + corpusProgA // duplicate of block 1
	progs, err := DecodePrograms(strings.NewReader(src), target)
	if err != nil {
		t.Fatalf("DecodePrograms: %v", err)
	}
	if len(progs) != 2 {
		t.Fatalf("got %d programs, want 2 after key dedup", len(progs))
	}
	if progs[0].Key() == progs[1].Key() {
		t.Fatal("dedup kept two programs with the same key")
	}
}

// TestReadCorpusIdempotent pins the /sync-round invariant: re-reading the
// same corpus (or an appended file repeating earlier programs) enqueues
// nothing new.
func TestReadCorpusIdempotent(t *testing.T) {
	src := corpusProgA + "\n" + corpusProgB

	p := NewPool(Config{Modules: []string{"watchqueue"}, Seed: 1}, 2)
	if n, err := p.ReadCorpus(strings.NewReader(src)); n != 2 || err != nil {
		t.Fatalf("first ReadCorpus = (%d, %v), want (2, nil)", n, err)
	}
	if n, _ := p.ReadCorpus(strings.NewReader(src)); n != 0 {
		t.Fatalf("second ReadCorpus enqueued %d duplicates", n)
	}
}

// TestReadCorpusSkipsCorpusDuplicates: a program already admitted to the
// coverage corpus is not re-enqueued as a seed on resume.
func TestReadCorpusSkipsCorpusDuplicates(t *testing.T) {
	p := NewPool(Config{Modules: []string{"watchqueue"}, Seed: 21, UseSeeds: true}, 2)
	p.Run(30)
	if p.CorpusLen() == 0 {
		t.Fatal("campaign built no corpus")
	}
	var exported strings.Builder
	if err := p.WriteCorpus(&exported); err != nil {
		t.Fatal(err)
	}
	// Re-importing its own corpus into the same campaign is a no-op.
	if n, err := p.ReadCorpus(strings.NewReader(exported.String())); n != 0 || err != nil {
		t.Fatalf("self re-import = (%d, %v), want (0, nil)", n, err)
	}
}

// TestEncodeDecodeRoundTrip: EncodePrograms output decodes back to the
// same programs, key for key, through an io.Pipe (true streaming).
func TestEncodeDecodeRoundTrip(t *testing.T) {
	target := modules.Target("watchqueue")
	p1, err := target.Parse(corpusProgA)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := target.Parse(corpusProgB)
	if err != nil {
		t.Fatal(err)
	}
	pr, pw := io.Pipe()
	go func() {
		_ = EncodePrograms(pw, []*syzlang.Program{p1, p2})
		pw.Close()
	}()
	got, err := DecodePrograms(pr, target)
	if err != nil {
		t.Fatalf("DecodePrograms: %v", err)
	}
	if len(got) != 2 || got[0].Key() != p1.Key() || got[1].Key() != p2.Key() {
		t.Fatalf("round trip changed programs: got %d", len(got))
	}
}
