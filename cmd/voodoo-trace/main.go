// Command voodoo-trace pretty-prints and filters the JSONL query-event
// log that voodoo-serve writes with -events. It is the offline half of
// the correlated-telemetry story: grab a query id from a response
// header, a log record or the slow-query ring, and voodoo-trace shows
// what the daemon retained about it.
//
// Usage:
//
//	voodoo-trace [-f events.jsonl] [-query-id ID] [-kind KIND]
//	             [-min-wall DUR] [-errors] [-n N] [-json] [-sql]
//
// With no -f the log is read from stdin, so it composes:
//
//	voodoo-trace -f events.jsonl -errors
//	voodoo-trace -f events.jsonl -query-id 4bf92f3577b34da6a3ce929d0e0e4736 -sql
//	tail -f events.jsonl | voodoo-trace -min-wall 250ms
//	voodoo-trace -f events.jsonl -json -kind shed-memory | jq .sql
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"voodoo/internal/telemetry"
)

func main() {
	file := flag.String("f", "", "read the JSONL event log from this file (empty = stdin)")
	queryID := flag.String("query-id", "", "only events with this query id (prefix match, so the short form from a log line works)")
	kind := flag.String("kind", "", "only events with this error kind (e.g. parse, canceled, shed-memory)")
	minWall := flag.Duration("min-wall", 0, "only events at or above this wall time")
	errorsOnly := flag.Bool("errors", false, "only failed queries (status >= 400)")
	limit := flag.Int("n", 0, "stop after printing N events (0 = all)")
	rawJSON := flag.Bool("json", false, "emit the matching raw JSONL lines instead of the table")
	showSQL := flag.Bool("sql", false, "print each event's full SQL on its own line")
	flag.Parse()

	var r io.Reader = os.Stdin
	if *file != "" {
		f, err := os.Open(*file)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		r = f
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64<<10), 4<<20)
	var printed, malformed int
	for sc.Scan() {
		line := sc.Bytes()
		if len(strings.TrimSpace(string(line))) == 0 {
			continue
		}
		var ev telemetry.Event
		if err := json.Unmarshal(line, &ev); err != nil {
			malformed++
			continue
		}
		if !match(&ev, *queryID, *kind, *minWall, *errorsOnly) {
			continue
		}
		if *rawJSON {
			fmt.Printf("%s\n", line)
		} else {
			fmt.Println(render(&ev))
			if *showSQL && ev.SQL != "" {
				fmt.Printf("    %s\n", ev.SQL)
			}
		}
		printed++
		if *limit > 0 && printed >= *limit {
			break
		}
	}
	if err := sc.Err(); err != nil {
		fatal(err)
	}
	if malformed > 0 {
		fmt.Fprintf(os.Stderr, "voodoo-trace: skipped %d malformed line(s)\n", malformed)
	}
}

func match(ev *telemetry.Event, queryID, kind string, minWall time.Duration, errorsOnly bool) bool {
	switch {
	case queryID != "" && !strings.HasPrefix(ev.QueryID, queryID):
		return false
	case kind != "" && ev.Kind != kind:
		return false
	case ev.WallNS < minWall.Nanoseconds():
		return false
	case errorsOnly && ev.Status < 400:
		return false
	}
	return true
}

// render lays out one event as a scannable line: when, who, outcome,
// where the time went, then what (SQL, truncated — -sql prints it all).
func render(ev *telemetry.Event) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s  %-8.8s  %3d %-9s %8s",
		ev.Time.Format("15:04:05.000"), ev.QueryID, ev.Status,
		sampledLabel(ev), dur(ev.WallNS))
	if ev.QueueNS > 0 {
		fmt.Fprintf(&sb, "  queue=%s", dur(ev.QueueNS))
	}
	if ev.ExecNS > 0 {
		fmt.Fprintf(&sb, "  exec=%s", dur(ev.ExecNS))
	}
	if ev.CompileNS > 0 {
		fmt.Fprintf(&sb, "  compile=%s", dur(ev.CompileNS))
	}
	if ev.Cached {
		sb.WriteString("  cached")
	}
	if ev.Rows > 0 {
		fmt.Fprintf(&sb, "  rows=%d", ev.Rows)
	}
	if ev.Error != "" {
		fmt.Fprintf(&sb, "  %s: %s", orDefault(ev.Kind, "error"), ev.Error)
	} else if sql := compactSQL(ev.SQL); sql != "" {
		sb.WriteString("  ")
		sb.WriteString(sql)
	}
	return sb.String()
}

// sampledLabel shows why the event was retained; the bracket marks the
// always-kept reasons apart from the random sample.
func sampledLabel(ev *telemetry.Event) string {
	if ev.Sampled == "" || ev.Sampled == "random" {
		return "sampled"
	}
	return "[" + ev.Sampled + "]"
}

func compactSQL(sql string) string {
	sql = strings.Join(strings.Fields(sql), " ")
	if len(sql) > 60 {
		sql = sql[:57] + "..."
	}
	return sql
}

func dur(ns int64) string {
	d := time.Duration(ns)
	switch {
	case d >= time.Second:
		return fmt.Sprintf("%.2fs", d.Seconds())
	case d >= time.Millisecond:
		return fmt.Sprintf("%.1fms", float64(d.Microseconds())/1000)
	}
	return fmt.Sprintf("%dµs", d.Microseconds())
}

func orDefault(s, fallback string) string {
	if s == "" {
		return fallback
	}
	return s
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "voodoo-trace:", err)
	os.Exit(1)
}
