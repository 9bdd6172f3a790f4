package obs

import (
	"fmt"
	"io"
	"os"
)

// WriteFiles is the one way a command saves a capture: the event trace
// as JSONL to tracePath and the metric series as CSV to metricsPath.
// An empty path skips that file. When the trace ring overwrote events
// the file starts mid-run, so a warning goes to warn.
func WriteFiles(o *Observer, tracePath, metricsPath string, warn io.Writer) error {
	if o == nil {
		return nil
	}
	if tracePath != "" {
		if err := writeFile(tracePath, o.WriteTraceJSONL); err != nil {
			return err
		}
		if d := o.TraceDropped(); d > 0 {
			if _, err := fmt.Fprintf(warn, "obs: trace ring overwrote %d oldest events\n", d); err != nil {
				return err
			}
		}
	}
	if metricsPath != "" {
		return writeFile(metricsPath, o.WriteMetricsCSV)
	}
	return nil
}

// writeFile creates path and streams one emitter into it.
func writeFile(path string, emit func(io.Writer) error) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := emit(f); err != nil {
		_ = f.Close() // the emit error is the one to report
		return err
	}
	return f.Close()
}
