// CRAWDAD import: the cambridge/haggle datasets the paper evaluates on
// are distributed as contact tables — one row per sighting, giving the
// two device ids and the start/end time of the contact. This file
// parses that shape into the package's event-stream Trace, so the real
// recordings can be dropped in for the synthetic generator whenever
// they are available.

package trace

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ReadContacts parses a whitespace-separated contact table:
//
//	<device-a> <device-b> <start-seconds> <end-seconds> [ignored extras...]
//
// Lines starting with '#' and blank lines are skipped. Device ids may
// be arbitrary non-negative integers (CRAWDAD numbers devices from 1);
// they are densely renumbered from 0 in first-appearance order.
// Overlapping or touching contact intervals for the same pair are
// merged, since radios observing each other twice are still just one
// link. The resulting trace is validated before being returned.
func ReadContacts(name string, r io.Reader) (*Trace, error) {
	type interval struct {
		start, end float64
	}
	contacts := make(map[[2]int][]interval)
	remap := make(map[int]int)
	dense := func(raw int) int {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := len(remap)
		remap[raw] = id
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	line := 0
	var maxEnd float64
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) < 4 {
			return nil, fmt.Errorf("trace: contacts line %d: want at least 4 fields, got %d", line, len(fields))
		}
		rawA, err := strconv.Atoi(fields[0])
		if err != nil {
			return nil, fmt.Errorf("trace: contacts line %d: device a: %v", line, err)
		}
		rawB, err := strconv.Atoi(fields[1])
		if err != nil {
			return nil, fmt.Errorf("trace: contacts line %d: device b: %v", line, err)
		}
		start, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: contacts line %d: start: %v", line, err)
		}
		end, err := strconv.ParseFloat(fields[3], 64)
		if err != nil {
			return nil, fmt.Errorf("trace: contacts line %d: end: %v", line, err)
		}
		if rawA == rawB {
			continue // self-sightings are noise
		}
		if end < start {
			return nil, fmt.Errorf("trace: contacts line %d: end %v before start %v", line, end, start)
		}
		if start < 0 {
			return nil, fmt.Errorf("trace: contacts line %d: negative start %v", line, start)
		}
		a, b := dense(rawA), dense(rawB)
		if a > b {
			a, b = b, a
		}
		contacts[[2]int{a, b}] = append(contacts[[2]int{a, b}], interval{start, end})
		if end > maxEnd {
			maxEnd = end
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(remap) < 2 {
		return nil, fmt.Errorf("trace: contacts: fewer than 2 devices seen")
	}

	t := &Trace{
		Name:     name,
		N:        len(remap),
		Duration: time.Duration(maxEnd * float64(time.Second)),
	}
	for key, ivs := range contacts {
		sort.Slice(ivs, func(i, j int) bool { return ivs[i].start < ivs[j].start })
		// Merge overlapping/touching intervals.
		merged := ivs[:0]
		for _, iv := range ivs {
			if n := len(merged); n > 0 && iv.start <= merged[n-1].end {
				if iv.end > merged[n-1].end {
					merged[n-1].end = iv.end
				}
				continue
			}
			merged = append(merged, iv)
		}
		for _, iv := range merged {
			t.Events = append(t.Events,
				Event{At: time.Duration(iv.start * float64(time.Second)), A: key[0], B: key[1], Up: true},
				Event{At: time.Duration(iv.end * float64(time.Second)), A: key[0], B: key[1], Up: false},
			)
		}
	}
	// Stable global ordering: time, then pair, then up before down.
	// After interval merging a pair's intervals are disjoint, so two
	// same-pair events can only share a timestamp for a zero-length
	// contact — whose up must precede its down.
	sort.SliceStable(t.Events, func(i, j int) bool {
		ei, ej := t.Events[i], t.Events[j]
		if ei.At != ej.At {
			return ei.At < ej.At
		}
		if ei.A != ej.A {
			return ei.A < ej.A
		}
		if ei.B != ej.B {
			return ei.B < ej.B
		}
		return ei.Up && !ej.Up
	})
	if err := t.Validate(); err != nil {
		return nil, fmt.Errorf("trace: contacts did not form a valid trace: %w", err)
	}
	return t, nil
}
