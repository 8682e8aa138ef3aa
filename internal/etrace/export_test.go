package etrace

// SetFormatVersion forces the trace format revision a recording writes —
// test-only access to the unexported compatibility knob, used by the
// format-generation compat suite to produce v1/v2 streams on demand.
func SetFormatVersion(o *RecordOptions, v byte) { o.formatVersion = v }

// StreamReplay is the strict streaming decode oracle (see streamReplay),
// exposed for the cross-checks in the external test package.
func StreamReplay(data []byte) (*Consumer, error) { return streamReplay(data) }
