package trace

import (
	"fmt"
	"os"
)

// Session ties the process-default tracer to a Chrome trace file and a
// digest for the duration of one traced run (the -trace=out.json flag of
// the cmd/upc-* binaries). Every engine created between StartSession and
// Close feeds both sinks; Close restores the previous default, writes
// the JSON file, and leaves the digest readable.
type Session struct {
	prev Tracer
	cw   *ChromeWriter
	dg   *Digest
	path string
	f    *os.File
	err  error
}

// StartSession installs a ChromeWriter+Digest pair as the process
// default tracer. path names the JSON file Close will write; "" runs a
// digest-only session — no ChromeWriter, so nothing is buffered and the
// memory cost stays flat no matter how many events the run emits (this
// is what the CI determinism gate uses on the large sweeps). The file is
// created eagerly so an unwritable path fails before the run, not after
// it.
func StartSession(path string) *Session {
	s := &Session{prev: Default(), dg: NewDigest(), path: path}
	sink := Tracer(s.dg)
	if path != "" {
		s.cw = NewChromeWriter()
		sink = Multi(s.cw, s.dg)
		if s.f, s.err = os.Create(path); s.err != nil {
			s.err = fmt.Errorf("trace: %w", s.err)
		}
	}
	SetDefault(Tee(s.prev, sink))
	return s
}

// Err reports whether the session's trace file could be created; call
// after StartSession to fail fast on a bad path.
func (s *Session) Err() error { return s.err }

// DigestSharer is implemented by sinks that keep a digest of the stream
// they see (metrics.Collection records one in its manifest). A sink
// attached before the session's first event sees exactly the session's
// stream, so Attach hands it the session's digest through ShareDigest
// and the sink stops hashing every event a second time.
type DigestSharer interface {
	ShareDigest(*Digest)
}

// Attach adds another sink to the session's process-default chain (the
// -metrics collectors ride the same stream as the digest). Call between
// StartSession and the first simulation; Close removes it along with the
// session's own sinks. A DigestSharer attached while the session's digest
// has seen no event is handed that digest.
func (s *Session) Attach(t Tracer) {
	if t == nil {
		return
	}
	if ds, ok := t.(DigestSharer); ok && s.dg.Events() == 0 {
		ds.ShareDigest(s.dg)
	}
	SetDefault(Tee(Default(), t))
}

// Close restores the previous default tracer and writes the trace file.
func (s *Session) Close() error {
	SetDefault(s.prev)
	if s.path == "" {
		return nil
	}
	if s.err != nil {
		return s.err
	}
	if err := s.cw.Export(s.f); err != nil {
		s.f.Close()
		return fmt.Errorf("trace: exporting %s: %w", s.path, err)
	}
	if err := s.f.Close(); err != nil {
		return fmt.Errorf("trace: %w", err)
	}
	return nil
}

// Digest reports the hash over every event the session observed.
func (s *Session) Digest() uint64 { return s.dg.Sum64() }

// Events reports how many events the session observed.
func (s *Session) Events() int64 { return s.dg.Events() }
