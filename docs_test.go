package remi

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCitedDocsExist fails when a .go file cites a Markdown file (DESIGN.md,
// remibench/README.md, ...) that exists neither in the citing file's
// directory nor in any directory above it.
func TestCitedDocsExist(t *testing.T) {
	mdRef := regexp.MustCompile(`[A-Za-z0-9_./-]*[A-Za-z0-9_-]\.md\b`)
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case !strings.HasSuffix(path, ".go"):
			return nil
		}
		src, err := os.ReadFile(path)
		for _, name := range mdRef.FindAllString(string(src), -1) {
			found := false
			for dir := filepath.Dir(path); !found; dir = filepath.Dir(dir) {
				_, statErr := os.Stat(filepath.Join(dir, name))
				found = statErr == nil
				if dir == "." {
					break
				}
			}
			if !found {
				t.Errorf("%s cites %s, which does not exist", path, name)
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
}
