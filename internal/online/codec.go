package online

import (
	"encoding/json"

	"treesched/internal/instance"
	"treesched/internal/wire"
)

// DecodeEvent decodes one event line: a session's NDJSON event batch
// line or a trace file's event line. A line inside the fast subset, which
// is what encoding/json writes for an Event (members op, job and id, a
// job's id and demand, each at most once, and the demand in
// instance.DecodeDemandWire's subset), is parsed in one pass over
// internal/wire, with op values interned to the Op constants. Anything
// else falls back to json.Unmarshal, which stays the one source of errors
// and of the lenient cases (case-folded, duplicate or unknown keys,
// escapes, null); fallback reports that it did. Either way the result is
// what json.Unmarshal into an Event gives, floats bit for bit, and it
// shares no memory with line.
func DecodeEvent(line []byte) (ev Event, fallback bool, err error) {
	if decodeEventFast(line, &ev) {
		return ev, false, nil
	}
	ev = Event{}
	return ev, true, json.Unmarshal(line, &ev)
}

// decodeEventFast is DecodeEvent's single pass; false means decline.
func decodeEventFast(line []byte, ev *Event) bool {
	d := wire.NewDecoder(line)
	if d.Open('{') {
		var seen uint
		for more := true; more; more = d.More('}') {
			var bit uint
			switch string(d.Key()) {
			case "op":
				bit = 1 << 0
				ev.Op = internOp(d.Str())
			case "job":
				bit = 1 << 1
				ev.Job = decodeJob(d)
			case "id":
				bit = 1 << 2
				ev.ID = d.Int64()
			default:
				d.Decline()
			}
			if seen&bit != 0 {
				d.Decline()
			}
			seen |= bit
		}
	}
	return d.End()
}

// decodeJob reads one job object; an empty object declines, as
// encoding/json never writes one for a Job.
func decodeJob(d *wire.Decoder) *Job {
	job := new(Job)
	if !d.Open('{') {
		d.Decline() // {} or not an object
		return job
	}
	var seen uint
	for more := true; more; more = d.More('}') {
		var bit uint
		switch string(d.Key()) {
		case "id":
			bit = 1 << 0
			job.ID = d.Int64()
		case "demand":
			bit = 1 << 1
			instance.DecodeDemandWire(d, &job.Demand)
		default:
			d.Decline()
		}
		if seen&bit != 0 {
			d.Decline()
		}
		seen |= bit
	}
	return job
}

// internOp returns the Op constant op spells, so the common events
// allocate no string; any other value is copied out of the line.
func internOp(op []byte) string {
	switch string(op) {
	case OpAdd:
		return OpAdd
	case OpRemove:
		return OpRemove
	case OpResolve:
		return OpResolve
	}
	return string(op)
}
