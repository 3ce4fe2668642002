package timeseries

import "fmt"

// Chunk is a bounded run of consecutive observations of a regular time
// series: the unit of transfer of the streaming data plane. A chunk carries
// its own start timestamp and sampling interval, so a consumer can process
// chunks without ever seeing the whole series — the paper's wind-turbine
// edge scenario (§1), where sensors produce points continuously and
// segments ship as they close.
//
// Values may be a view into a producer-owned buffer that is reused for the
// next chunk; consumers that need the data beyond the next Source.Next call
// must copy it (Series.Append does).
type Chunk struct {
	// Start is the Unix timestamp of the chunk's first observation.
	Start int64
	// Interval is the sampling interval in seconds.
	Interval int64
	// Values holds the chunk's observations, oldest first.
	Values []float64
}

// Len returns the number of observations in the chunk.
func (c Chunk) Len() int { return len(c.Values) }

// End returns the timestamp one interval past the chunk's last observation,
// i.e. the Start of the chunk that abuts this one.
func (c Chunk) End() int64 { return c.Start + int64(len(c.Values))*c.Interval }

// Source yields the chunks of a regular time series in order. It is the
// streaming counterpart of Series: the evaluation pipeline's
// ingest→compress→reconstruct prefix consumes Sources, so stages hold
// O(chunk) rather than O(series) state. Implementations may reuse the
// returned chunk's Values buffer between Next calls.
//
// Third-party producers (a sensor driver, a network tailer) implement this
// interface to feed the compression layer directly; see examples/streaming.
type Source interface {
	// Next returns the next chunk. ok is false once the stream is
	// exhausted or has failed; check Err to distinguish.
	Next() (c Chunk, ok bool)
	// Err returns the first error the source encountered, or nil after a
	// clean end of stream.
	Err() error
}

// DefaultChunkSize is the chunk length used when a caller passes a
// non-positive size: small enough to bound memory, large enough to amortise
// per-chunk overhead.
const DefaultChunkSize = 512

// sliceSource adapts an in-memory Series to the Source interface, yielding
// size-bounded views of the underlying values (no copying).
type sliceSource struct {
	s    *Series
	size int
	pos  int
}

// Chunks returns a Source over the series' values in chunks of the given
// size (non-positive sizes fall back to DefaultChunkSize). The yielded
// chunks alias s.Values — the trivial adaptation of the batch
// representation to the streaming one.
func (s *Series) Chunks(size int) Source {
	if size <= 0 {
		size = DefaultChunkSize
	}
	return &sliceSource{s: s, size: size}
}

func (ss *sliceSource) Next() (Chunk, bool) {
	if ss.pos >= ss.s.Len() {
		return Chunk{}, false
	}
	hi := ss.pos + ss.size
	if hi > ss.s.Len() {
		hi = ss.s.Len()
	}
	c := Chunk{
		Start:    ss.s.TimeAt(ss.pos),
		Interval: ss.s.Interval,
		Values:   ss.s.Values[ss.pos:hi],
	}
	ss.pos = hi
	return c, true
}

func (ss *sliceSource) Err() error { return nil }

// Append appends the chunk's values to the series, copying them so the
// producer may reuse the chunk buffer. On an empty series the chunk's
// metadata is adopted; afterwards each chunk must abut the series end and
// share its interval, so a dropped or duplicated chunk is caught at the
// seam instead of silently corrupting the reconstruction. Growth is
// amortised by the built-in append, so collecting a stream of k chunks
// costs O(n), not O(n·k).
func (s *Series) Append(c Chunk) error {
	if len(c.Values) == 0 {
		return nil
	}
	if s.Len() == 0 {
		s.Start = c.Start
		s.Interval = c.Interval
	} else {
		if c.Interval != s.Interval {
			return fmt.Errorf("timeseries: chunk interval %d does not match series interval %d", c.Interval, s.Interval)
		}
		if want := s.TimeAt(s.Len()); c.Start != want {
			return fmt.Errorf("timeseries: chunk starts at %d, series expects %d", c.Start, want)
		}
	}
	s.Values = append(s.Values, c.Values...)
	return nil
}

// Collect drains a Source into a new Series with the given name. It is the
// point where a streaming pipeline collapses to the batch representation,
// as when a decoded stream feeds a model that needs random access.
func Collect(name string, src Source) (*Series, error) {
	s := &Series{Name: name}
	for {
		c, ok := src.Next()
		if !ok {
			break
		}
		if err := s.Append(c); err != nil {
			return nil, err
		}
	}
	if err := src.Err(); err != nil {
		return nil, err
	}
	return s, nil
}
