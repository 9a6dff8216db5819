// Package telemetry is the shared CLI glue for the observability
// layer: it turns -metrics/-trace flag values into a metrics registry
// and flight recorder, and exports both after the run. Telemetry output
// always goes to its own files (or stdout via "-"), never into the
// report stream, so report bytes are identical with telemetry on or
// off.
package telemetry

import (
	"flag"
	"fmt"
	"io"
	"os"

	"qarv"
)

// Sinks holds a command's telemetry destinations. The zero value (no
// flags set) collects and writes nothing.
type Sinks struct {
	metricsPath string
	tracePath   string

	// Registry is non-nil when -metrics was given; pass it to the
	// engine being run (Spec.Metrics, Sweep.Metrics, WithTelemetry).
	Registry *qarv.MetricsRegistry
	// Recorder is non-nil when -trace was given.
	Recorder *qarv.FlightRecorder
}

// Flags registers -metrics and -trace on fs and returns the sinks,
// resolved by Resolve after fs.Parse.
func Flags(fs *flag.FlagSet) *Sinks {
	s := &Sinks{}
	fs.StringVar(&s.metricsPath, "metrics", "", "write the run's metric snapshot as JSON to FILE (\"-\" = stdout)")
	fs.StringVar(&s.tracePath, "trace", "", "write the run's flight-recorder trace as a Chrome trace_event FILE (\"-\" = stdout)")
	return s
}

// Resolve materializes the sinks the parsed flags asked for. Call it
// after fs.Parse and before the run.
func (s *Sinks) Resolve() {
	if s.metricsPath != "" {
		s.Registry = qarv.NewMetricsRegistry()
	}
	if s.tracePath != "" {
		s.Recorder = qarv.NewFlightRecorder(0)
	}
}

// Export writes the collected telemetry: the registry snapshot as
// indented JSON to the -metrics path and the recorder as a Chrome
// trace_event file to the -trace path. A path of "-" writes to out.
// When the recorder's ring overflowed, so the trace holds only the run's
// tail, Export says so in one line on errOut.
func (s *Sinks) Export(out, errOut io.Writer) error {
	if s.Registry != nil {
		err := writeTo(out, s.metricsPath, s.Registry.Snapshot().EncodeJSON)
		if err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
	}
	if s.Recorder != nil {
		if err := writeTo(out, s.tracePath, s.Recorder.WriteTrace); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		if dropped := s.Recorder.Dropped(); dropped > 0 {
			fmt.Fprintf(errOut, "trace: kept the newest %d records; the ring (capacity %d) evicted %d older ones, so the trace starts mid-run\n",
				s.Recorder.Len(), s.Recorder.Cap(), dropped)
		}
	}
	return nil
}

// writeTo streams write into path, or into out when path is "-".
func writeTo(out io.Writer, path string, write func(io.Writer) error) error {
	if path == "-" {
		return write(out)
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := write(f); err != nil {
		_ = f.Close() // the write error is the one worth reporting
		return err
	}
	return f.Close()
}
