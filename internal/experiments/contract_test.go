package experiments

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"decompstudy/internal/core"
)

// seed26SHA256 is the sha256 of `studysim -seed 26`: every artifact in
// paper order. It is the repository's behavioural contract; a change that
// moves it changes what the reproduction reports.
const seed26SHA256 = "0672547f27b9be0afe1980f536d2b52cf10cc377aa9ba3c9a1db240e8f1e7b9a"

// TestSeed26ByteContract regenerates the full seed-26 study exactly as
// studysim does and checks its bytes against the pinned sha256.
func TestSeed26ByteContract(t *testing.T) {
	r, err := NewRunner(&core.Config{Seed: 26})
	if err != nil {
		t.Fatalf("NewRunner: %v", err)
	}
	out, err := r.All()
	if err != nil {
		t.Fatalf("All: %v", err)
	}
	h := sha256.Sum256([]byte(out))
	if got := hex.EncodeToString(h[:]); got != seed26SHA256 {
		t.Fatalf("seed-26 study sha256 = %s, want %s", got, seed26SHA256)
	}
}

// TestModelTablesPinned pins the Table I (GLMM) and Table II (LMM) text at
// three more seeds, so the mixed-model fits are held to their bytes on
// other data than seed 26's. The goldens under testdata/contract are part
// of the same contract as seed26SHA256: a change that moves them changes
// what the fits report, and regenerating them hides that.
func TestModelTablesPinned(t *testing.T) {
	for _, seed := range []int64{7, 132, 232} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			t.Parallel()
			r, err := NewRunner(&core.Config{Seed: seed})
			if err != nil {
				t.Fatalf("NewRunner: %v", err)
			}
			for _, tc := range []struct {
				name   string
				render func() (string, error)
			}{
				{"table1", r.TableI},
				{"table2", r.TableII},
			} {
				got, err := tc.render()
				if err != nil {
					t.Fatalf("%s: %v", tc.name, err)
				}
				path := filepath.Join("testdata", "contract", fmt.Sprintf("seed%d_%s.txt", seed, tc.name))
				want, err := os.ReadFile(path)
				if err != nil {
					t.Fatal(err)
				}
				if got != string(want) {
					t.Errorf("%s at seed %d differs from %s:\ngot:\n%s\nwant:\n%s", tc.name, seed, path, got, want)
				}
			}
		})
	}
}
