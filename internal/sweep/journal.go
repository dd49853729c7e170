package sweep

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"vedrfolnir/internal/wire"
)

// journalFormat is the supported journal format version.
const journalFormat = 1

// Journal is a sweep's JSONL checkpoint file: a wire.SweepHeader line
// followed by one wire.SweepRecord line per finished job. While a sweep
// runs, records are appended in completion order (maximum checkpoint
// granularity: a kill loses at most the in-flight jobs); when the sweep
// finishes, Compact rewrites the file in job order, so two completed
// journals of the same sweep are byte-identical no matter how many times
// they were interrupted or how many workers ran them.
type Journal struct {
	path    string
	f       *os.File
	header  wire.SweepHeader
	have    map[string]Result
	skipped int
}

// OpenJournal opens or creates the journal at path for the sweep described
// by spec. An existing file must carry the same spec — a journal never
// mixes two different sweeps — and its records become the resume set.
func OpenJournal(path string, spec wire.SweepSpec) (*Journal, error) {
	j := &Journal{
		path:   path,
		header: wire.SweepHeader{Format: journalFormat, Spec: spec},
		have:   map[string]Result{},
	}
	if _, err := os.Stat(path); err == nil {
		header, results, skipped, err := readJournal(path)
		if err != nil {
			return nil, err
		}
		j.skipped = skipped
		if header.Spec != spec {
			return nil, fmt.Errorf("sweep: journal %s belongs to sweep %+v, not %+v",
				path, header.Spec, spec)
		}
		for _, r := range results {
			if r.Err == "" { // failed jobs re-run on resume
				j.have[r.Key] = r
			}
		}
	} else if !os.IsNotExist(err) {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("sweep: %w", err)
	}
	j.f = f
	st, err := f.Stat()
	if err != nil {
		_ = f.Close()
		return nil, fmt.Errorf("sweep: %w", err)
	}
	if st.Size() == 0 {
		if err := j.appendLine(j.header); err != nil {
			_ = f.Close()
			return nil, err
		}
	}
	return j, nil
}

// Skipped returns how many corrupt journal lines the open discarded —
// typically the torn final line of a killed run. The jobs they would have
// resumed simply re-run.
func (j *Journal) Skipped() int { return j.skipped }

// Have returns the journaled result for key, if the job completed
// successfully in a previous run. Failed jobs are not "had": a resumed
// sweep re-runs them so transient failures heal.
func (j *Journal) Have(key string) (Result, bool) {
	r, ok := j.have[key]
	return r, ok
}

// Append journals one finished job.
func (j *Journal) Append(r Result) error {
	if j.f == nil {
		return fmt.Errorf("sweep: journal %s is closed", j.path)
	}
	return j.appendLine(wireRecord(r))
}

func (j *Journal) appendLine(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	b = append(b, '\n')
	if _, err := j.f.Write(b); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// Compact atomically rewrites the journal as header + results in the
// given (job) order, replacing the completion-order append log. It closes
// the journal: a compacted journal is a finished sweep's canonical form.
func (j *Journal) Compact(results []Result) error {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	if err := enc.Encode(j.header); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	for _, r := range results {
		if err := enc.Encode(wireRecord(r)); err != nil {
			return fmt.Errorf("sweep: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(j.path), filepath.Base(j.path)+".tmp*")
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	if _, err := tmp.Write(buf.Bytes()); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("sweep: %w", err)
	}
	// fsync before the rename: the compacted journal must be on stable
	// storage before it replaces the append log, or a crash could leave a
	// renamed-but-empty canonical file.
	if err := tmp.Sync(); err != nil {
		_ = tmp.Close()
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("sweep: %w", err)
	}
	if err := tmp.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("sweep: %w", err)
	}
	if err := j.Close(); err != nil {
		_ = os.Remove(tmp.Name())
		return err
	}
	if err := os.Rename(tmp.Name(), j.path); err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("sweep: %w", err)
	}
	// fsync the directory too: the rename itself must survive a power
	// loss, or the canonical journal could vanish with the temp name.
	return syncDir(filepath.Dir(j.path))
}

// syncDir fsyncs a directory so a just-renamed file survives a crash
// (the same discipline as analyzerd's snapshot replacement).
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// Close releases the journal's file handle. Safe to call twice.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	f := j.f
	j.f = nil
	if err := f.Close(); err != nil {
		return fmt.Errorf("sweep: %w", err)
	}
	return nil
}

// readJournal parses a journal file: the header plus every record, in file
// order. Records for the same key may repeat (an interrupted sweep re-ran
// a failed job); later lines supersede earlier ones. A record line that no
// longer parses — typically the torn final line of a killed run — is
// skipped and counted in skipped rather than refusing the whole journal:
// losing one checkpoint line must cost one re-run, not the resume. Only a
// missing, empty, or corrupt-header journal is an error.
func readJournal(path string) (header wire.SweepHeader, results []Result, skipped int, err error) {
	f, err := os.Open(path)
	if err != nil {
		return wire.SweepHeader{}, nil, 0, fmt.Errorf("sweep: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 16<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return wire.SweepHeader{}, nil, 0, fmt.Errorf("sweep: %w", err)
		}
		return wire.SweepHeader{}, nil, 0, fmt.Errorf("sweep: journal %s is empty", path)
	}
	if err := json.Unmarshal(sc.Bytes(), &header); err != nil {
		return wire.SweepHeader{}, nil, 0, fmt.Errorf("sweep: journal %s header: %w", path, err)
	}
	if header.Format != journalFormat {
		return wire.SweepHeader{}, nil, 0, fmt.Errorf("sweep: journal %s has format %d, want %d",
			path, header.Format, journalFormat)
	}
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var rec wire.SweepRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			skipped++
			continue
		}
		results = append(results, resultFromWire(rec))
	}
	if err := sc.Err(); err != nil {
		return wire.SweepHeader{}, nil, 0, fmt.Errorf("sweep: %w", err)
	}
	return header, results, skipped, nil
}
