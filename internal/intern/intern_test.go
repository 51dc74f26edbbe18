package intern

import (
	"fmt"
	"strings"
	"sync"
	"testing"
)

func TestInternDedup(t *testing.T) {
	tb := NewTable()
	a := tb.Intern("hello")
	// Build an equal string with different backing bytes.
	b := tb.Intern(string([]byte("hello")))
	if a != "hello" || b != "hello" {
		t.Fatalf("intern corrupted content: %q %q", a, b)
	}
	if &a == &b {
		t.Fatal("test is vacuous")
	}
	// Same canonical backing: unsafe-free check via the table's own
	// accounting — two inserts of equal content must count one miss.
	if got := tb.Stats(); got.Misses != 1 || got.Hits != 1 || got.Strings != 1 {
		t.Fatalf("stats = %+v, want 1 miss / 1 hit / 1 string", got)
	}
}

func TestInternSkipsLongAndEmpty(t *testing.T) {
	tb := NewTable()
	if got := tb.Intern(""); got != "" {
		t.Fatalf("empty: %q", got)
	}
	long := strings.Repeat("x", MaxLen+1)
	if got := tb.Intern(long); got != long {
		t.Fatalf("long mangled: %q", got)
	}
	if tb.Len() != 0 {
		t.Fatalf("table grew on skipped inputs: %d", tb.Len())
	}
	// Exactly MaxLen is interned.
	edge := strings.Repeat("y", MaxLen)
	tb.Intern(edge)
	if tb.Len() != 1 {
		t.Fatalf("MaxLen string not interned")
	}
}

func TestInternSubstringNotPinned(t *testing.T) {
	tb := NewTable()
	big := strings.Repeat("z", 1<<16) + "needle"
	s := tb.Intern(big[len(big)-6:])
	if s != "needle" {
		t.Fatalf("got %q", s)
	}
	if got := tb.Stats().Bytes; got != 6 {
		t.Fatalf("backing bytes = %d, want 6 (substring must be copied out)", got)
	}
}

// TestInternConcurrent is the -race stress test: many goroutines intern
// overlapping vocabularies from fresh and reused buffers while readers
// snapshot stats. Invariants: content is never corrupted, and every
// distinct input maps to exactly one canonical string (checked by
// comparing string data pointers via map identity after the fact).
func TestInternConcurrent(t *testing.T) {
	tb := NewTable()
	const (
		goroutines = 16
		vocab      = 256
		rounds     = 200
	)
	words := make([]string, vocab)
	for i := range words {
		words[i] = fmt.Sprintf("comp-%03d", i)
	}

	var wg sync.WaitGroup
	results := make([][]string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			out := make([]string, vocab)
			buf := make([]byte, 0, 16)
			for r := 0; r < rounds; r++ {
				for i, w := range words {
					var got string
					if (g+r+i)%2 == 0 {
						got = tb.Intern(string([]byte(w)))
					} else {
						buf = append(buf[:0], w...)
						got = tb.Intern(string(buf))
					}
					if got != w {
						panic(fmt.Sprintf("corrupted: got %q want %q", got, w))
					}
					out[i] = got
				}
				if r%50 == 0 {
					_ = tb.Stats()
					_ = tb.Len()
				}
			}
			results[g] = out
		}(g)
	}
	wg.Wait()

	if got := tb.Len(); got != vocab {
		t.Fatalf("table has %d strings, want %d (dedup broken)", got, vocab)
	}
	st := tb.Stats()
	if st.Misses != vocab {
		t.Fatalf("misses = %d, want %d", st.Misses, vocab)
	}
	if st.Bytes != int64(vocab*len("comp-000")) {
		t.Fatalf("bytes = %d", st.Bytes)
	}
	// Every goroutine must have received the same canonical copies.
	for g := 1; g < goroutines; g++ {
		for i := range words {
			if results[g][i] != results[0][i] {
				t.Fatalf("goroutine %d word %d diverged", g, i)
			}
		}
	}
}
