package serve

import (
	"fmt"
	"os"
	"path/filepath"
)

// Store is the filesystem artifact store: one directory per job holding its
// resilience checkpoints and run journal, plus a dead-letter area
// quarantined jobs are moved into with everything they wrote — the
// forensic record a poisoned job leaves behind. A succeeded job's result
// is not stored here: the queue journals it in the job's state record.
type Store struct {
	root string
}

// NewStore roots the artifact store at dir, creating the layout.
func NewStore(dir string) (*Store, error) {
	s := &Store{root: dir}
	for _, d := range []string{s.jobsDir(), s.DeadLetterDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("serve: artifact store: %w", err)
		}
	}
	return s, nil
}

func (s *Store) jobsDir() string { return filepath.Join(s.root, "jobs") }

// DeadLetterDir is where quarantined jobs' artifacts land.
func (s *Store) DeadLetterDir() string { return filepath.Join(s.root, "deadletter") }

// JobDir returns (creating) the artifact directory of one job. The
// checkpoint file inside it is what makes a crash-resumed run bit-identical:
// the rerun restores every completed stage instead of recomputing it.
func (s *Store) JobDir(id string) (string, error) {
	d := filepath.Join(s.jobsDir(), id)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", fmt.Errorf("serve: job dir: %w", err)
	}
	return d, nil
}

// DeadLetterCount returns the number of quarantined jobs resting in the
// dead-letter directory (0 on a read error: the gauge built on this must
// never make observability a failure mode).
func (s *Store) DeadLetterCount() int {
	entries, err := os.ReadDir(s.DeadLetterDir())
	if err != nil {
		return 0
	}
	n := 0
	for _, e := range entries {
		if e.IsDir() {
			n++
		}
	}
	return n
}

// Quarantine moves the job's artifact directory into the dead-letter area
// and records the reason alongside, so the poisoned run's checkpoints and
// journals travel with it.
func (s *Store) Quarantine(id, reason string) error {
	src := filepath.Join(s.jobsDir(), id)
	dst := filepath.Join(s.DeadLetterDir(), id)
	if _, err := os.Stat(src); os.IsNotExist(err) {
		if err := os.MkdirAll(dst, 0o755); err != nil {
			return fmt.Errorf("serve: quarantine: %w", err)
		}
	} else if err := os.Rename(src, dst); err != nil {
		return fmt.Errorf("serve: quarantine: %w", err)
	}
	reasonPath := filepath.Join(dst, "reason.txt")
	if err := os.WriteFile(reasonPath, []byte(reason+"\n"), 0o644); err != nil {
		return fmt.Errorf("serve: quarantine: %w", err)
	}
	return nil
}
