package wire

import (
	"encoding/json"
	"fmt"
	"math"
	"strings"
)

// This file is the one decoder for every JSON document the service tier
// reads: diagnosis bundles, protocol lines, snapshots and shard dumps. It
// is a recursive-descent parser with one table of (key, store) pairs per
// DTO, and it accepts, refuses and decodes exactly as encoding/json's
// reflection decoder does over the same structs — the router must refuse
// what a shard would, and an existing WAL must replay to the same state —
// at a fraction of the cost. DESIGN.md §16 has the grammar and the parity
// contract; the differential fuzzers in the _test.go files hold it to
// encoding/json. No decoded value aliases the input.

// maxDepth is encoding/json's nesting limit: the 10 001st open container
// is an error wherever it sits, an unknown key's value included.
const maxDepth = 10000

// decoder is a cursor over one document. The first failure sticks in err
// and moves the cursor to the end, so every later read sees end of input
// and every loop stops; err is checked once, when the value is done.
type decoder struct {
	data  []byte
	i     int  // next unread byte
	depth int  // containers open at i
	first bool // the innermost open container has yielded nothing yet
	err   error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("wire: %s at offset %d", what, d.i)
	}
	d.i = len(d.data)
}

// peek returns the next byte, or 0 (which starts no JSON token) at the end.
func (d *decoder) peek() byte {
	if d.i < len(d.data) {
		return d.data[d.i]
	}
	return 0
}

func (d *decoder) ws() {
	for d.i < len(d.data) {
		switch d.data[d.i] {
		case ' ', '\n', '\t', '\r':
			d.i++
		default:
			return
		}
	}
}

func (d *decoder) literal(s string) {
	if end := d.i + len(s); end > len(d.data) || string(d.data[d.i:end]) != s {
		d.fail("invalid literal")
	} else {
		d.i = end
	}
}

// null consumes a null if one is next. What it means is the caller's
// business: nothing to a scalar or a struct, nil to a slice, pointer or map.
func (d *decoder) null() bool {
	if d.peek() != 'n' {
		return false
	}
	d.literal("null")
	return true
}

// open enters the container that starts with c ('{' or '['). It reports
// false for a null (consumed, a no-op on the target) and for any other
// kind of value (an error: no DTO field takes two JSON types).
func (d *decoder) open(c byte) bool {
	if d.null() {
		return false
	}
	if d.peek() != c {
		d.fail(fmt.Sprintf("expected %q", c))
		return false
	}
	d.i++
	if d.depth++; d.depth > maxDepth {
		d.fail("exceeded max depth")
		return false
	}
	d.first = true
	return true
}

// more reports whether the open container has another element, consuming
// the separating comma or the closing byte.
func (d *decoder) more(closer byte) bool {
	d.ws()
	switch {
	case d.err != nil:
		return false
	case d.peek() == closer:
		d.i++
		d.depth--
		d.first = false
		return false
	case d.first:
		d.first = false
	case d.peek() == ',':
		d.i++
		d.ws()
	default:
		d.fail(fmt.Sprintf("expected ',' or %q", closer))
		return false
	}
	return true
}

// str consumes a string literal and returns its contents. Plain ASCII comes
// back as a subslice of the input, for the caller to compare or copy; a
// literal with an escape or a non-ASCII byte goes through json.Unmarshal,
// whose unquoting (surrogate pairs, U+FFFD for invalid UTF-8) and escape
// validation are the contract.
func (d *decoder) str() []byte {
	if d.peek() != '"' {
		d.fail("expected string")
		return nil
	}
	start, plain := d.i, true
	for d.i++; d.i < len(d.data); d.i++ {
		switch c := d.data[d.i]; {
		case c == '"':
			d.i++
			if plain {
				return d.data[start+1 : d.i-1]
			}
			var s string
			if err := json.Unmarshal(d.data[start:d.i], &s); err != nil {
				d.fail("invalid string literal")
			}
			return []byte(s)
		case c == '\\':
			plain = false
			d.i++ // whatever is escaped, it does not end the literal
		case c < 0x20:
			d.fail("control character in string literal")
		case c >= 0x80:
			plain = false
		}
	}
	d.fail("unterminated string literal")
	return nil
}

// name consumes an object key and its colon.
func (d *decoder) name() []byte {
	k := d.str()
	if d.ws(); d.peek() == ':' {
		d.i++
		d.ws()
	} else {
		d.fail("expected ':' after object key")
	}
	return k
}

// digits consumes one or more decimal digits.
func (d *decoder) digits() {
	start := d.i
	for d.i < len(d.data) && d.data[d.i]-'0' <= 9 {
		d.i++
	}
	if d.i == start {
		d.fail("expected digit")
	}
}

// number consumes a number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
// plain reports that it was all integer part and within 64 bits — what
// strconv.ParseInt takes of that grammar, and all an integer field accepts.
func (d *decoder) number() (mag uint64, neg, plain bool) {
	if neg = d.peek() == '-'; neg {
		d.i++
	}
	start := d.i
	plain = true
	for ; d.i < len(d.data) && d.data[d.i]-'0' <= 9; d.i++ {
		c := uint64(d.data[d.i] - '0')
		if mag > math.MaxUint64/10 || mag == math.MaxUint64/10 && c > math.MaxUint64%10 {
			plain = false
		}
		if mag = mag*10 + c; c == 0 && d.i == start {
			d.i++ // a leading zero stands alone; the container refuses what follows
			break
		}
	}
	if d.i == start {
		d.fail("expected digit")
	}
	if d.peek() == '.' {
		d.i++
		d.digits()
		plain = false
	}
	if c := d.peek(); c == 'e' || c == 'E' {
		if d.i++; d.peek() == '+' || d.peek() == '-' {
			d.i++
		}
		d.digits()
		plain = false
	}
	return mag, neg, plain
}

// skip consumes one value of any kind, validating it in full: an unknown
// key's value is ignored, but its syntax and its depth still count.
func (d *decoder) skip() {
	switch d.peek() {
	case '{':
		for ok := d.open('{'); ok && d.more('}'); {
			d.name()
			d.skip()
		}
	case '[':
		for ok := d.open('['); ok && d.more(']'); {
			d.skip()
		}
	case '"':
		d.str()
	case 't':
		d.literal("true")
	case 'f':
		d.literal("false")
	case 'n':
		d.literal("null")
	default:
		d.number()
	}
}

// signed stores an integer into a field of any signed width; null is a
// no-op and a value outside the field's width an error.
func signed[T int | int32 | int64](d *decoder, p *T) {
	if d.null() {
		return
	}
	mag, neg, plain := d.number()
	n, limit := int64(mag), uint64(math.MaxInt64)
	if neg {
		n, limit = -n, limit+1
	}
	if !plain || mag > limit || int64(T(n)) != n {
		d.fail("not an integer of the field's width")
	}
	*p = T(n)
}

// unsigned is signed for the unsigned widths; like strconv.ParseUint it
// refuses any minus sign, "-0" included.
func unsigned[T uint8 | uint16 | uint64](d *decoder, p *T) {
	if d.null() {
		return
	}
	mag, neg, plain := d.number()
	if !plain || neg || uint64(T(mag)) != mag {
		d.fail("not an unsigned integer of the field's width")
	}
	*p = T(mag)
}

func (d *decoder) boolean(p *bool) {
	if d.null() {
		return
	}
	if *p = d.peek() == 't'; *p {
		d.literal("true")
	} else {
		d.literal("false")
	}
}

func (d *decoder) text(p *string) {
	if d.null() {
		return
	}
	*p = string(d.str())
}

// slice decodes an array the way encoding/json fills a slice that may
// already hold elements: element i decodes over (*s)[i] wherever the
// backing array reaches that far — stale fields and all — and over a zero
// value past it; the slice is then cut to the count read, and an empty
// array yields an empty, non-nil slice. null yields nil.
func slice[T any](d *decoder, s *[]T, elem codec[T]) {
	if d.null() {
		*s = nil
		return
	}
	if !d.open('[') {
		return
	}
	n := 0
	for ; d.more(']'); n++ {
		if n == len(*s) {
			if n < cap(*s) {
				*s = (*s)[:n+1]
			} else {
				var zero T
				*s = append(*s, zero)
			}
		}
		elem.decode(d, &(*s)[n])
	}
	if *s = (*s)[:n]; n == 0 {
		*s = []T{}
	}
}

// pointer decodes into **p, allocating it if nil; null sets *p nil.
func pointer[T any](d *decoder, p **T, elem codec[T]) {
	if d.null() {
		*p = nil
		return
	}
	if *p == nil {
		*p = new(T)
	}
	elem.decode(d, *p)
}

// metrics decodes Bundle.Metrics; a repeated key adds to the map it made.
func (d *decoder) metrics(m *map[string]int64) {
	if d.null() {
		*m = nil
		return
	}
	if !d.open('{') {
		return
	}
	if *m == nil {
		*m = map[string]int64{}
	}
	for d.more('}') {
		k, n := string(d.name()), int64(0)
		signed(d, &n)
		(*m)[k] = n
	}
}

// codec is a DTO's decoder: its keys, in struct order, each with the store
// for its value.
type codec[T any] []struct {
	key   string
	store func(*decoder, *T)
}

// decode reads an object into v. A key selects the field it equals, else
// the first it equals under Unicode case folding; an unknown key's value is
// skipped. Nothing is reset first: a repeated key stores again (the last
// scalar wins, objects merge, arrays overwrite in place) and an absent key
// leaves what v held.
func (c codec[T]) decode(d *decoder, v *T) {
	if !d.open('{') {
		return
	}
next:
	for d.more('}') {
		k := d.name()
		for i := range c {
			if c[i].key == string(k) {
				c[i].store(d, v)
				continue next
			}
		}
		for i := range c {
			if strings.EqualFold(c[i].key, string(k)) {
				c[i].store(d, v)
				continue next
			}
		}
		d.skip()
	}
}

var flowCodec = codec[Flow]{
	{"src", func(d *decoder, f *Flow) { signed(d, &f.Src) }},
	{"dst", func(d *decoder, f *Flow) { signed(d, &f.Dst) }},
	{"sport", func(d *decoder, f *Flow) { unsigned(d, &f.SrcPort) }},
	{"dport", func(d *decoder, f *Flow) { unsigned(d, &f.DstPort) }},
	{"proto", func(d *decoder, f *Flow) { unsigned(d, &f.Proto) }},
}

var portCodec = codec[Port]{
	{"node", func(d *decoder, p *Port) { signed(d, &p.Node) }},
	{"port", func(d *decoder, p *Port) { signed(d, &p.Port) }},
}

var stepRecordCodec = codec[StepRecord]{
	{"host", func(d *decoder, r *StepRecord) { signed(d, &r.Host) }},
	{"step", func(d *decoder, r *StepRecord) { signed(d, &r.Step) }},
	{"flow", func(d *decoder, r *StepRecord) { flowCodec.decode(d, &r.Flow) }},
	{"bytes", func(d *decoder, r *StepRecord) { signed(d, &r.Bytes) }},
	{"start_ns", func(d *decoder, r *StepRecord) { signed(d, &r.StartNS) }},
	{"end_ns", func(d *decoder, r *StepRecord) { signed(d, &r.EndNS) }},
	{"wait_src", func(d *decoder, r *StepRecord) { signed(d, &r.WaitSrc) }},
	{"wait_step", func(d *decoder, r *StepRecord) { signed(d, &r.WaitStep) }},
	{"bound_by_wait", func(d *decoder, r *StepRecord) { d.boolean(&r.BoundByWait) }},
}

var flowCountCodec = codec[FlowCount]{
	{"flow", func(d *decoder, c *FlowCount) { flowCodec.decode(d, &c.Flow) }},
	{"n", func(d *decoder, c *FlowCount) { signed(d, &c.N) }},
}

var flowRecordCodec = codec[FlowRecord]{
	{"switch", func(d *decoder, r *FlowRecord) { signed(d, &r.Switch) }},
	{"port", func(d *decoder, r *FlowRecord) { signed(d, &r.Port) }},
	{"flow", func(d *decoder, r *FlowRecord) { flowCodec.decode(d, &r.Flow) }},
	{"pkts", func(d *decoder, r *FlowRecord) { signed(d, &r.Pkts) }},
	{"bytes", func(d *decoder, r *FlowRecord) { signed(d, &r.Bytes) }},
	{"wait", func(d *decoder, r *FlowRecord) { slice(d, &r.Wait, flowCountCodec) }},
}

var pfcEventCodec = codec[PFCEvent]{
	{"at_ns", func(d *decoder, e *PFCEvent) { signed(d, &e.AtNS) }},
	{"pause", func(d *decoder, e *PFCEvent) { d.boolean(&e.Pause) }},
	{"upstream", func(d *decoder, e *PFCEvent) { portCodec.decode(d, &e.Upstream) }},
	{"downstream", func(d *decoder, e *PFCEvent) { signed(d, &e.Downstream) }},
	{"ingress", func(d *decoder, e *PFCEvent) { signed(d, &e.IngressPort) }},
	{"cause", func(d *decoder, e *PFCEvent) { signed(d, &e.CauseEgress) }},
	{"injected", func(d *decoder, e *PFCEvent) { d.boolean(&e.Injected) }},
}

var meterEntryCodec = codec[MeterEntry]{
	{"from", func(d *decoder, m *MeterEntry) { portCodec.decode(d, &m.From) }},
	{"bytes", func(d *decoder, m *MeterEntry) { signed(d, &m.Bytes) }},
}

var portRecordCodec = codec[PortRecord]{
	{"switch", func(d *decoder, r *PortRecord) { signed(d, &r.Switch) }},
	{"port", func(d *decoder, r *PortRecord) { signed(d, &r.Port) }},
	{"queued_bytes", func(d *decoder, r *PortRecord) { signed(d, &r.QueuedBytes) }},
	{"queued_pkts", func(d *decoder, r *PortRecord) { signed(d, &r.QueuedPkts) }},
	{"avg_queued_bytes", func(d *decoder, r *PortRecord) { signed(d, &r.AvgQueuedBytes) }},
	{"paused", func(d *decoder, r *PortRecord) { d.boolean(&r.Paused) }},
	{"pause_count", func(d *decoder, r *PortRecord) { signed(d, &r.PauseCount) }},
	{"paused_for_ns", func(d *decoder, r *PortRecord) { signed(d, &r.PausedForNS) }},
	{"meter_in", func(d *decoder, r *PortRecord) { slice(d, &r.MeterIn, meterEntryCodec) }},
	{"pfc_events", func(d *decoder, r *PortRecord) { slice(d, &r.PFCEvents, pfcEventCodec) }},
}

var dropEntryCodec = codec[DropEntry]{
	{"switch", func(d *decoder, e *DropEntry) { signed(d, &e.Switch) }},
	{"n", func(d *decoder, e *DropEntry) { signed(d, &e.N) }},
}

var reportCodec = codec[Report]{
	{"at_ns", func(d *decoder, r *Report) { signed(d, &r.AtNS) }},
	{"triggered_by", func(d *decoder, r *Report) { flowCodec.decode(d, &r.TriggeredBy) }},
	{"flows", func(d *decoder, r *Report) { slice(d, &r.Flows, flowRecordCodec) }},
	{"ports", func(d *decoder, r *Report) { slice(d, &r.Ports, portRecordCodec) }},
	{"ttl_drops", func(d *decoder, r *Report) { slice(d, &r.TTLDrops, dropEntryCodec) }},
	{"hops_polled", func(d *decoder, r *Report) { signed(d, &r.HopsPolled) }},
	{"ports_missed", func(d *decoder, r *Report) { signed(d, &r.PortsMissed) }},
}

var bundleCodec = codec[Bundle]{
	{"records", func(d *decoder, b *Bundle) { slice(d, &b.Records, stepRecordCodec) }},
	{"reports", func(d *decoder, b *Bundle) { slice(d, &b.Reports, reportCodec) }},
	{"cfs", func(d *decoder, b *Bundle) { slice(d, &b.CFs, flowCodec) }},
	{"metrics", func(d *decoder, b *Bundle) { d.metrics(&b.Metrics) }},
}

var sourcedMessageCodec = codec[SourcedMessage]{
	{"client", func(d *decoder, m *SourcedMessage) { d.text(&m.Client) }},
	{"seq", func(d *decoder, m *SourcedMessage) { signed(d, &m.Seq) }},
	{"type", func(d *decoder, m *SourcedMessage) { d.text(&m.Type) }},
	{"step", func(d *decoder, m *SourcedMessage) { pointer(d, &m.Step, stepRecordCodec) }},
	{"report", func(d *decoder, m *SourcedMessage) { pointer(d, &m.Report, reportCodec) }},
	{"cf", func(d *decoder, m *SourcedMessage) { pointer(d, &m.CF, flowCodec) }},
}

var clientAckCodec = codec[ClientAck]{
	{"client", func(d *decoder, a *ClientAck) { d.text(&a.Client) }},
	{"seq", func(d *decoder, a *ClientAck) { signed(d, &a.Seq) }},
}

var shardMapCodec = codec[ShardMap]{
	{"shards", func(d *decoder, m *ShardMap) { signed(d, &m.Shards) }},
	{"replicas", func(d *decoder, m *ShardMap) { signed(d, &m.Replicas) }},
}

var snapshotCodec = codec[Snapshot]{
	{"format", func(d *decoder, s *Snapshot) { signed(d, &s.Format) }},
	{"next_lsn", func(d *decoder, s *Snapshot) { unsigned(d, &s.NextLSN) }},
	{"messages", func(d *decoder, s *Snapshot) { slice(d, &s.Messages, sourcedMessageCodec) }},
	{"acked", func(d *decoder, s *Snapshot) { slice(d, &s.Acked, clientAckCodec) }},
}

// dumpReply is a shard's answer to the dump verb: its state, or in its
// place an {"error": …} line. failure takes the error text when the value
// is a string and ignores any other value, as an unknown key would be.
type dumpReply struct {
	ShardState
	failure string
}

var dumpReplyCodec = codec[dumpReply]{
	{"format", func(d *decoder, r *dumpReply) { signed(d, &r.Format) }},
	{"shard", func(d *decoder, r *dumpReply) { signed(d, &r.Shard) }},
	{"map", func(d *decoder, r *dumpReply) { shardMapCodec.decode(d, &r.Map) }},
	{"messages", func(d *decoder, r *dumpReply) { slice(d, &r.Messages, sourcedMessageCodec) }},
	{"acked", func(d *decoder, r *dumpReply) { slice(d, &r.Acked, clientAckCodec) }},
	{"error", func(d *decoder, r *dumpReply) {
		if d.peek() == '"' {
			d.text(&r.failure)
		} else {
			d.skip()
		}
	}},
}

var messageCodec = codec[Message]{
	{"type", func(d *decoder, m *Message) { d.text(&m.Type) }},
	{"step", func(d *decoder, m *Message) { pointer(d, &m.Step, stepRecordCodec) }},
	{"report", func(d *decoder, m *Message) { pointer(d, &m.Report, reportCodec) }},
	{"cf", func(d *decoder, m *Message) { pointer(d, &m.CF, flowCodec) }},
	{"seq", func(d *decoder, m *Message) { signed(d, &m.Seq) }},
	{"client", func(d *decoder, m *Message) { d.text(&m.Client) }},
}

// decode reads the first JSON value of data as a T. With whole set only
// whitespace may follow it (json.Unmarshal's rule); without, whatever
// follows is ignored (json.Decoder.Decode's).
func decode[T any](data []byte, c codec[T], whole bool) (*T, error) {
	d, v := decoder{data: data}, new(T)
	d.ws()
	c.decode(&d, v)
	if d.ws(); whole && d.err == nil && d.i < len(data) {
		d.fail("data after top-level value")
	}
	if d.err != nil {
		return nil, d.err
	}
	return v, nil
}

// DecodeBundle parses a bundle that is the whole of data.
func DecodeBundle(data []byte) (*Bundle, error) { return decode(data, bundleCodec, true) }

// DecodeMessage parses one protocol line: its syntax and field types only;
// analyzerd.ParseMessage adds the protocol's rules.
func DecodeMessage(line []byte) (*Message, error) { return decode(line, messageCodec, true) }

// DecodeSnapshot parses a snapshot file.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return decode(data, snapshotCodec, true) }

// DecodeShardState parses a shard's reply to the dump verb. failure is the
// reply's "error" text, set when the shard answered with an error line in
// place of a state (which then has Format 0).
func DecodeShardState(rep []byte) (state *ShardState, failure string, err error) {
	r, err := decode(rep, dumpReplyCodec, true)
	if err != nil {
		return nil, "", err
	}
	return &r.ShardState, r.failure, nil
}
