package wire

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"strconv"
	"strings"
)

// This file is the one decoder for every JSON document the service tier
// reads: diagnosis bundles, protocol lines, snapshots and reply lines. It
// is a recursive-descent parser over one table of (key, store, emit)
// entries per DTO — the emit column is encode.go's — and it accepts, refuses and decodes exactly as encoding/json's
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
	// A split bundle decode (decodeBundle) sets these. key is one more than
	// the index of the last bundleCodec key stored, -1 for good once a key
	// comes out of table order or twice; cut is where the calling half
	// halts, at the start of an element of bundleCodec's cutKey-1'th list.
	key, cut, cutKey int
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

// ws and the other per-byte loops below work on a local copy of the
// cursor and store d.i once, so the cursor lives in a register.
func (d *decoder) ws() {
	data, i := d.data, d.i
	for ; i < len(data); i++ {
		if c := data[i]; c > ' ' || c != ' ' && c != '\n' && c != '\t' && c != '\r' {
			break
		}
	}
	d.i = i
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
	data, i := d.data, d.i
	if i >= len(data) || data[i] != '"' {
		d.fail("expected string")
		return nil
	}
	start, plain := i, true
	for i++; i < len(data); i++ {
		c := data[i]
		if c-0x20 < 0x80-0x20 && c != '"' && c != '\\' {
			continue // printable ASCII that neither ends nor escapes
		}
		switch {
		case c == '"':
			d.i = i + 1
			if plain {
				return data[start+1 : i]
			}
			var s string
			if err := json.Unmarshal(data[start:i+1], &s); err != nil {
				d.fail("invalid string literal")
			}
			return []byte(s)
		case c == '\\':
			plain = false
			i++ // whatever is escaped, it does not end the literal
		case c < 0x20:
			d.i = i
			d.fail("control character in string literal")
			return nil
		default:
			plain = false
		}
	}
	d.i = i
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
	data, i := d.data, d.i
	for i < len(data) && data[i]-'0' <= 9 {
		i++
	}
	if i == d.i {
		d.fail("expected digit")
	} else {
		d.i = i
	}
}

// number consumes a number: -? (0 | [1-9][0-9]*) (. [0-9]+)? ([eE] [+-]? [0-9]+)?
// plain reports that it was all integer part and within 64 bits — what
// strconv.ParseInt takes of that grammar, and all an integer field accepts.
func (d *decoder) number() (mag uint64, neg, plain bool) {
	data, i := d.data, d.i
	if neg = i < len(data) && data[i] == '-'; neg {
		i++
	}
	start := i
	plain = true
	if i < len(data) && data[i] == '0' {
		i++ // a leading zero stands alone; the container refuses what follows
	} else {
		// 19 digits cannot overflow 64 bits, so only the 20th on are checked.
		for end := min(len(data), start+19); i < end && data[i]-'0' <= 9; i++ {
			mag = mag*10 + uint64(data[i]-'0')
		}
		for ; i < len(data) && data[i]-'0' <= 9; i++ {
			c := uint64(data[i] - '0')
			if mag > math.MaxUint64/10 || mag == math.MaxUint64/10 && c > math.MaxUint64%10 {
				plain = false
			}
			mag = mag*10 + c
		}
	}
	if d.i = i; i == start {
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
	if d.open('[') {
		elems(d, s, elem)
	}
}

// elems is slice past the '[': the elements, the ']', and the cut. A
// split decode's calling half halts at its cut (halted), with the elements
// before it in place.
func elems[T any](d *decoder, s *[]T, elem codec[T]) {
	n := 0
	for ; d.more(']'); n++ {
		if d.i == d.cut && d.depth == 2 && d.key == d.cutKey {
			d.err, d.i = halted{}, len(d.data)
			break
		}
		if n == len(*s) {
			if n == cap(*s) {
				var zeros [4]T // append's growth, never below 4; fresh elements are zero
				*s = append(*s, zeros[:]...)
			}
			*s = (*s)[:n+1]
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

// codec is a DTO's schema: its keys, in struct order, each with the store
// that decodes its value and the emit that encodes it (encode.go).
type codec[T any] []struct {
	key   string
	store func(*decoder, *T)
	emit  func([]byte, *T) []byte
}

// decode reads an object into v. A key selects the field it equals, else
// the first it equals under Unicode case folding; an unknown key's value is
// skipped. Nothing is reset first: a repeated key stores again (the last
// scalar wins, objects merge, arrays overwrite in place) and an absent key
// leaves what v held.
//
// Writers emit keys in struct order, so the entry after the last one
// matched is tried first, on the raw bytes: table keys are plain ASCII and
// unique, so input reading exactly "key": is the key str would return and
// the exact match lookup would find. Anything else takes the lookup.
func (c codec[T]) decode(d *decoder, v *T) {
	if d.open('{') {
		c.fields(d, v, 0)
	}
}

// fields is decode past the '{', next the entry to try first.
func (c codec[T]) fields(d *decoder, v *T, next int) {
	for d.more('}') {
		i := next
		if i >= len(c) || !d.predicted(c[i].key) {
			if i = c.find(d.name()); i < 0 {
				d.skip()
				continue
			}
		}
		c[i].store(d, v)
		next = i + 1
	}
}

// predicted consumes "key": and the whitespace after it if the input
// holds exactly those bytes next.
func (d *decoder) predicted(key string) bool {
	i, end := d.i, d.i+len(key)+3
	if end > len(d.data) || d.data[i] != '"' || d.data[end-2] != '"' || d.data[end-1] != ':' || string(d.data[i+1:end-2]) != key {
		return false
	}
	d.i = end
	d.ws()
	return true
}

// find returns the entry key k selects, or -1 for an unknown key.
func (c codec[T]) find(k []byte) int {
	for i := range c {
		if c[i].key == string(k) {
			return i
		}
	}
	for i := range c {
		if strings.EqualFold(c[i].key, string(k)) {
			return i
		}
	}
	return -1
}

var flowCodec = codec[Flow]{
	{"src", func(d *decoder, f *Flow) { signed(d, &f.Src) }, func(b []byte, f *Flow) []byte { return num(b, f.Src) }},
	{"dst", func(d *decoder, f *Flow) { signed(d, &f.Dst) }, func(b []byte, f *Flow) []byte { return num(b, f.Dst) }},
	{"sport", func(d *decoder, f *Flow) { unsigned(d, &f.SrcPort) }, func(b []byte, f *Flow) []byte { return unum(b, f.SrcPort) }},
	{"dport", func(d *decoder, f *Flow) { unsigned(d, &f.DstPort) }, func(b []byte, f *Flow) []byte { return unum(b, f.DstPort) }},
	{"proto", func(d *decoder, f *Flow) { unsigned(d, &f.Proto) }, func(b []byte, f *Flow) []byte { return unum(b, f.Proto) }},
}

var portCodec = codec[Port]{
	{"node", func(d *decoder, p *Port) { signed(d, &p.Node) }, func(b []byte, p *Port) []byte { return num(b, p.Node) }},
	{"port", func(d *decoder, p *Port) { signed(d, &p.Port) }, func(b []byte, p *Port) []byte { return num(b, p.Port) }},
}

var stepRecordCodec = codec[StepRecord]{
	{"host", func(d *decoder, r *StepRecord) { signed(d, &r.Host) }, func(b []byte, r *StepRecord) []byte { return num(b, r.Host) }},
	{"step", func(d *decoder, r *StepRecord) { signed(d, &r.Step) }, func(b []byte, r *StepRecord) []byte { return num(b, r.Step) }},
	{"flow", func(d *decoder, r *StepRecord) { flowCodec.decode(d, &r.Flow) }, func(b []byte, r *StepRecord) []byte { return flowCodec.encode(b, &r.Flow) }},
	{"bytes", func(d *decoder, r *StepRecord) { signed(d, &r.Bytes) }, func(b []byte, r *StepRecord) []byte { return num(b, r.Bytes) }},
	{"start_ns", func(d *decoder, r *StepRecord) { signed(d, &r.StartNS) }, func(b []byte, r *StepRecord) []byte { return num(b, r.StartNS) }},
	{"end_ns", func(d *decoder, r *StepRecord) { signed(d, &r.EndNS) }, func(b []byte, r *StepRecord) []byte { return num(b, r.EndNS) }},
	{"wait_src", func(d *decoder, r *StepRecord) { signed(d, &r.WaitSrc) }, func(b []byte, r *StepRecord) []byte { return num(b, r.WaitSrc) }},
	{"wait_step", func(d *decoder, r *StepRecord) { signed(d, &r.WaitStep) }, func(b []byte, r *StepRecord) []byte { return num(b, r.WaitStep) }},
	{"bound_by_wait", func(d *decoder, r *StepRecord) { d.boolean(&r.BoundByWait) }, func(b []byte, r *StepRecord) []byte { return strconv.AppendBool(b, r.BoundByWait) }},
}

var flowCountCodec = codec[FlowCount]{
	{"flow", func(d *decoder, c *FlowCount) { flowCodec.decode(d, &c.Flow) }, func(b []byte, c *FlowCount) []byte { return flowCodec.encode(b, &c.Flow) }},
	{"n", func(d *decoder, c *FlowCount) { signed(d, &c.N) }, func(b []byte, c *FlowCount) []byte { return num(b, c.N) }},
}

var flowRecordCodec = codec[FlowRecord]{
	{"switch", func(d *decoder, r *FlowRecord) { signed(d, &r.Switch) }, func(b []byte, r *FlowRecord) []byte { return num(b, r.Switch) }},
	{"port", func(d *decoder, r *FlowRecord) { signed(d, &r.Port) }, func(b []byte, r *FlowRecord) []byte { return num(b, r.Port) }},
	{"flow", func(d *decoder, r *FlowRecord) { flowCodec.decode(d, &r.Flow) }, func(b []byte, r *FlowRecord) []byte { return flowCodec.encode(b, &r.Flow) }},
	{"pkts", func(d *decoder, r *FlowRecord) { signed(d, &r.Pkts) }, func(b []byte, r *FlowRecord) []byte { return num(b, r.Pkts) }},
	{"bytes", func(d *decoder, r *FlowRecord) { signed(d, &r.Bytes) }, func(b []byte, r *FlowRecord) []byte { return num(b, r.Bytes) }},
	{"wait", func(d *decoder, r *FlowRecord) { slice(d, &r.Wait, flowCountCodec) }, func(b []byte, r *FlowRecord) []byte { return optList(b, r.Wait, flowCountCodec) }},
}

var pfcEventCodec = codec[PFCEvent]{
	{"at_ns", func(d *decoder, e *PFCEvent) { signed(d, &e.AtNS) }, func(b []byte, e *PFCEvent) []byte { return num(b, e.AtNS) }},
	{"pause", func(d *decoder, e *PFCEvent) { d.boolean(&e.Pause) }, func(b []byte, e *PFCEvent) []byte { return strconv.AppendBool(b, e.Pause) }},
	{"upstream", func(d *decoder, e *PFCEvent) { portCodec.decode(d, &e.Upstream) }, func(b []byte, e *PFCEvent) []byte { return portCodec.encode(b, &e.Upstream) }},
	{"downstream", func(d *decoder, e *PFCEvent) { signed(d, &e.Downstream) }, func(b []byte, e *PFCEvent) []byte { return num(b, e.Downstream) }},
	{"ingress", func(d *decoder, e *PFCEvent) { signed(d, &e.IngressPort) }, func(b []byte, e *PFCEvent) []byte { return num(b, e.IngressPort) }},
	{"cause", func(d *decoder, e *PFCEvent) { signed(d, &e.CauseEgress) }, func(b []byte, e *PFCEvent) []byte { return num(b, e.CauseEgress) }},
	{"injected", func(d *decoder, e *PFCEvent) { d.boolean(&e.Injected) }, func(b []byte, e *PFCEvent) []byte { return strconv.AppendBool(b, e.Injected) }},
}

var meterEntryCodec = codec[MeterEntry]{
	{"from", func(d *decoder, m *MeterEntry) { portCodec.decode(d, &m.From) }, func(b []byte, m *MeterEntry) []byte { return portCodec.encode(b, &m.From) }},
	{"bytes", func(d *decoder, m *MeterEntry) { signed(d, &m.Bytes) }, func(b []byte, m *MeterEntry) []byte { return num(b, m.Bytes) }},
}

var portRecordCodec = codec[PortRecord]{
	{"switch", func(d *decoder, r *PortRecord) { signed(d, &r.Switch) }, func(b []byte, r *PortRecord) []byte { return num(b, r.Switch) }},
	{"port", func(d *decoder, r *PortRecord) { signed(d, &r.Port) }, func(b []byte, r *PortRecord) []byte { return num(b, r.Port) }},
	{"queued_bytes", func(d *decoder, r *PortRecord) { signed(d, &r.QueuedBytes) }, func(b []byte, r *PortRecord) []byte { return num(b, r.QueuedBytes) }},
	{"queued_pkts", func(d *decoder, r *PortRecord) { signed(d, &r.QueuedPkts) }, func(b []byte, r *PortRecord) []byte { return num(b, r.QueuedPkts) }},
	{"avg_queued_bytes", func(d *decoder, r *PortRecord) { signed(d, &r.AvgQueuedBytes) }, func(b []byte, r *PortRecord) []byte { return num(b, r.AvgQueuedBytes) }},
	{"paused", func(d *decoder, r *PortRecord) { d.boolean(&r.Paused) }, func(b []byte, r *PortRecord) []byte { return strconv.AppendBool(b, r.Paused) }},
	{"pause_count", func(d *decoder, r *PortRecord) { signed(d, &r.PauseCount) }, func(b []byte, r *PortRecord) []byte { return num(b, r.PauseCount) }},
	{"paused_for_ns", func(d *decoder, r *PortRecord) { signed(d, &r.PausedForNS) }, func(b []byte, r *PortRecord) []byte { return num(b, r.PausedForNS) }},
	{"meter_in", func(d *decoder, r *PortRecord) { slice(d, &r.MeterIn, meterEntryCodec) }, func(b []byte, r *PortRecord) []byte { return optList(b, r.MeterIn, meterEntryCodec) }},
	{"pfc_events", func(d *decoder, r *PortRecord) { slice(d, &r.PFCEvents, pfcEventCodec) }, func(b []byte, r *PortRecord) []byte { return optList(b, r.PFCEvents, pfcEventCodec) }},
}

var dropEntryCodec = codec[DropEntry]{
	{"switch", func(d *decoder, e *DropEntry) { signed(d, &e.Switch) }, func(b []byte, e *DropEntry) []byte { return num(b, e.Switch) }},
	{"n", func(d *decoder, e *DropEntry) { signed(d, &e.N) }, func(b []byte, e *DropEntry) []byte { return num(b, e.N) }},
}

var reportCodec = codec[Report]{
	{"at_ns", func(d *decoder, r *Report) { signed(d, &r.AtNS) }, func(b []byte, r *Report) []byte { return num(b, r.AtNS) }},
	{"triggered_by", func(d *decoder, r *Report) { flowCodec.decode(d, &r.TriggeredBy) }, func(b []byte, r *Report) []byte { return flowCodec.encode(b, &r.TriggeredBy) }},
	{"flows", func(d *decoder, r *Report) { slice(d, &r.Flows, flowRecordCodec) }, func(b []byte, r *Report) []byte { return optList(b, r.Flows, flowRecordCodec) }},
	{"ports", func(d *decoder, r *Report) { slice(d, &r.Ports, portRecordCodec) }, func(b []byte, r *Report) []byte { return optList(b, r.Ports, portRecordCodec) }},
	{"ttl_drops", func(d *decoder, r *Report) { slice(d, &r.TTLDrops, dropEntryCodec) }, func(b []byte, r *Report) []byte { return optList(b, r.TTLDrops, dropEntryCodec) }},
	{"hops_polled", func(d *decoder, r *Report) { signed(d, &r.HopsPolled) }, func(b []byte, r *Report) []byte { return num(b, r.HopsPolled) }},
	{"ports_missed", func(d *decoder, r *Report) { signed(d, &r.PortsMissed) }, func(b []byte, r *Report) []byte { return opt(b, r.PortsMissed, num) }},
}

// bundleCodec has no emit column: Bundle.Write walks its keys itself, to
// hand its buffer on between elements rather than hold the whole document.
var bundleCodec = codec[Bundle]{
	{"records", func(d *decoder, b *Bundle) { d.order(0); slice(d, &b.Records, stepRecordCodec) }, nil},
	{"reports", func(d *decoder, b *Bundle) { d.order(1); slice(d, &b.Reports, reportCodec) }, nil},
	{"cfs", func(d *decoder, b *Bundle) { d.order(2); slice(d, &b.CFs, flowCodec) }, nil},
	{"metrics", func(d *decoder, b *Bundle) { d.order(3); d.metrics(&b.Metrics) }, nil},
}

// order notes that bundleCodec's i-th key is stored (decoder.key).
func (d *decoder) order(i int) {
	if d.key >= 0 && i >= d.key {
		d.key = i + 1
	} else {
		d.key = -1
	}
}

var sourcedMessageCodec = codec[SourcedMessage]{
	{"client", func(d *decoder, m *SourcedMessage) { d.text(&m.Client) }, func(b []byte, m *SourcedMessage) []byte { return opt(b, m.Client, text) }},
	{"seq", func(d *decoder, m *SourcedMessage) { signed(d, &m.Seq) }, func(b []byte, m *SourcedMessage) []byte { return opt(b, m.Seq, num) }},
	{"type", func(d *decoder, m *SourcedMessage) { d.text(&m.Type) }, func(b []byte, m *SourcedMessage) []byte { return text(b, m.Type) }},
	{"step", func(d *decoder, m *SourcedMessage) { pointer(d, &m.Step, stepRecordCodec) }, func(b []byte, m *SourcedMessage) []byte { return opt(b, m.Step, stepRecordCodec.encode) }},
	{"report", func(d *decoder, m *SourcedMessage) { pointer(d, &m.Report, reportCodec) }, func(b []byte, m *SourcedMessage) []byte { return opt(b, m.Report, reportCodec.encode) }},
	{"cf", func(d *decoder, m *SourcedMessage) { pointer(d, &m.CF, flowCodec) }, func(b []byte, m *SourcedMessage) []byte { return opt(b, m.CF, flowCodec.encode) }},
}

var clientAckCodec = codec[ClientAck]{
	{"client", func(d *decoder, a *ClientAck) { d.text(&a.Client) }, func(b []byte, a *ClientAck) []byte { return text(b, a.Client) }},
	{"seq", func(d *decoder, a *ClientAck) { signed(d, &a.Seq) }, func(b []byte, a *ClientAck) []byte { return num(b, a.Seq) }},
}

// shardMapCodec has no store column: a map is only written, in a moved NAK.
var shardMapCodec = codec[ShardMap]{
	{"shards", nil, func(b []byte, m *ShardMap) []byte { return num(b, m.Shards) }},
}

var snapshotCodec = codec[Snapshot]{
	{"format", func(d *decoder, s *Snapshot) { signed(d, &s.Format) }, func(b []byte, s *Snapshot) []byte { return num(b, s.Format) }},
	{"next_lsn", func(d *decoder, s *Snapshot) { unsigned(d, &s.NextLSN) }, func(b []byte, s *Snapshot) []byte { return unum(b, s.NextLSN) }},
	{"messages", func(d *decoder, s *Snapshot) { slice(d, &s.Messages, sourcedMessageCodec) }, func(b []byte, s *Snapshot) []byte { return optList(b, s.Messages, sourcedMessageCodec) }},
	{"acked", func(d *decoder, s *Snapshot) { slice(d, &s.Acked, clientAckCodec) }, func(b []byte, s *Snapshot) []byte { return optList(b, s.Acked, clientAckCodec) }},
}

var messageCodec = codec[Message]{
	{"type", func(d *decoder, m *Message) { d.text(&m.Type) }, func(b []byte, m *Message) []byte { return text(b, m.Type) }},
	{"step", func(d *decoder, m *Message) { pointer(d, &m.Step, stepRecordCodec) }, func(b []byte, m *Message) []byte { return opt(b, m.Step, stepRecordCodec.encode) }},
	{"report", func(d *decoder, m *Message) { pointer(d, &m.Report, reportCodec) }, func(b []byte, m *Message) []byte { return opt(b, m.Report, reportCodec.encode) }},
	{"cf", func(d *decoder, m *Message) { pointer(d, &m.CF, flowCodec) }, func(b []byte, m *Message) []byte { return opt(b, m.CF, flowCodec.encode) }},
	{"seq", func(d *decoder, m *Message) { signed(d, &m.Seq) }, func(b []byte, m *Message) []byte { return opt(b, m.Seq, num) }},
	{"client", func(d *decoder, m *Message) { d.text(&m.Client) }, func(b []byte, m *Message) []byte { return opt(b, m.Client, text) }},
}

var replyCodec = codec[Reply]{
	{"ack", func(d *decoder, r *Reply) { signed(d, &r.Ack) }, func(b []byte, r *Reply) []byte { return num(b, r.Ack) }},
	{"nak", func(d *decoder, r *Reply) { signed(d, &r.Nak) }, func(b []byte, r *Reply) []byte { return num(b, r.Nak) }},
	{"error", func(d *decoder, r *Reply) { d.text(&r.Error) }, func(b []byte, r *Reply) []byte { return text(b, r.Error) }},
	{"retry", func(d *decoder, r *Reply) { d.boolean(&r.Retry) }, func(b []byte, r *Reply) []byte { return strconv.AppendBool(b, r.Retry) }},
	{"moved", func(d *decoder, r *Reply) { d.boolean(&r.Moved) }, func(b []byte, r *Reply) []byte { return strconv.AppendBool(b, r.Moved) }},
	{"addr", func(d *decoder, r *Reply) { d.text(&r.Addr) }, func(b []byte, r *Reply) []byte { return text(b, r.Addr) }},
}

var replyLineCodec = codec[ReplyLine]{
	{"ack", nil, func(b []byte, r *ReplyLine) []byte { return opt(b, r.Ack, num) }},
	{"nak", nil, func(b []byte, r *ReplyLine) []byte { return opt(b, r.Nak, num) }},
	{"client", nil, func(b []byte, r *ReplyLine) []byte { return opt(b, r.Client, text) }},
	{"moved", nil, func(b []byte, r *ReplyLine) []byte { return opt(b, r.Moved, strconv.AppendBool) }},
	{"owner", nil, func(b []byte, r *ReplyLine) []byte {
		return opt(b, r.Owner, func(b []byte, o *int) []byte { return num(b, *o) })
	}},
	{"map", nil, func(b []byte, r *ReplyLine) []byte { return opt(b, r.Map, shardMapCodec.encode) }},
	{"addr", nil, func(b []byte, r *ReplyLine) []byte { return opt(b, r.Addr, text) }},
	{"error", nil, func(b []byte, r *ReplyLine) []byte { return opt(b, r.Error, text) }},
	{"retry", nil, func(b []byte, r *ReplyLine) []byte { return opt(b, r.Retry, strconv.AppendBool) }},
}

// decode reads the first JSON value of data as a T. With whole set only
// whitespace may follow it (json.Unmarshal's rule); without, whatever
// follows is ignored (json.Decoder.Decode's).
func decode[T any](data []byte, c codec[T], whole bool) (*T, error) {
	d, v := decoder{data: data}, new(T)
	d.ws()
	c.decode(&d, v)
	if err := d.end(whole); err != nil {
		return nil, err
	}
	return v, nil
}

// end finishes the top-level value; with whole set only whitespace follows.
func (d *decoder) end(whole bool) error {
	if d.ws(); whole && d.err == nil && d.i < len(d.data) {
		d.fail("data after top-level value")
	}
	return d.err
}

// halted is the error that stops a split decode's calling half at its cut;
// it never leaves decodeBundle.
type halted struct{}

func (halted) Error() string { return "wire: halted at the cut" }

// decodeBundle is decode for a bundle, on both cores when there are two:
// it splits data at its first resync point past the middle (decodeFrom).
func decodeBundle(data []byte, whole bool) (*Bundle, error) {
	from := len(data)
	if runtime.GOMAXPROCS(0) > 1 {
		from = len(data) / 2
	}
	return decodeFrom(data, whole, from)
}

// decodeFrom decodes data split at its first resync point at or after from,
// and sequentially if it has none. A resync point is the '{' of a "},{"
// that goes on as an element of one of bundleCodec's lists does when
// Bundle.Write writes it: its table's first key, a number, its second key.
func decodeFrom(data []byte, whole bool, from int) (*Bundle, error) {
	for p := from; p < len(data); p++ {
		j := bytes.Index(data[p:], []byte("},{"))
		if j < 0 {
			break
		}
		switch p += j; {
		case leads(data, p+2, stepRecordCodec):
			return split(data, whole, p+2, 0, func(b *Bundle) *[]StepRecord { return &b.Records }, stepRecordCodec)
		case leads(data, p+2, reportCodec):
			return split(data, whole, p+2, 1, func(b *Bundle) *[]Report { return &b.Reports }, reportCodec)
		case leads(data, p+2, flowCodec):
			return split(data, whole, p+2, 2, func(b *Bundle) *[]Flow { return &b.CFs }, flowCodec)
		}
	}
	return decode(data, bundleCodec, whole)
}

// leads reports whether data at r is '{', c's first key, a number, ',' and
// c's second key.
func leads[T any](data []byte, r int, c codec[T]) bool {
	d := decoder{data: data, i: r + 1}
	if data[r] != '{' || !d.predicted(c[0].key) {
		return false
	}
	if d.number(); d.err != nil || d.peek() != ',' {
		return false
	}
	d.i++
	return d.predicted(c[1].key)
}

// split decodes data in two halves that meet at resync point r, taken to
// start an element of bundleCodec's k-th list, *list(b). The tail, on a
// goroutine, decodes from r: the rest of that list over fresh elements, its
// ']', and the bundle's keys after it, in table order and once each or it
// gives up. The caller decodes from the start and halts at r only where the
// list's next element starts, all keys so far once each and in order
// (elems): from there a sequential decode is the tail's, offsets and all.
// A caller that never halts (an error before r, say) keeps its own decode;
// a tail that gave up costs a sequential one (DESIGN.md §16).
func split[T any](data []byte, whole bool, r, k int, list func(*Bundle) *[]T, elem codec[T]) (*Bundle, error) {
	tail, done := new(Bundle), make(chan decoder, 1)
	go func() {
		d := decoder{data: data, i: r, depth: 2, first: true, key: k + 1}
		elems(&d, list(tail), elem)
		bundleCodec.fields(&d, tail, k+1)
		_ = d.end(whole) // kept in d.err
		done <- d
	}()
	d, b := decoder{data: data, cut: r, cutKey: k + 1}, new(Bundle)
	d.ws()
	bundleCodec.decode(&d, b)
	switch t := <-done; {
	case d.err != halted{}:
		if err := d.end(whole); err != nil {
			return nil, err
		}
		return b, nil
	case t.key < 0:
		return decode(data, bundleCodec, whole)
	case t.err != nil:
		return nil, t.err
	}
	*list(tail) = append(*list(b), *list(tail)...) // the keys before k are the caller's
	if k > 0 {
		tail.Records = b.Records
	}
	if k > 1 {
		tail.Reports = b.Reports
	}
	return tail, nil
}

// DecodeBundle parses a bundle that is the whole of data.
func DecodeBundle(data []byte) (*Bundle, error) { return decodeBundle(data, true) }

// DecodeMessage parses one protocol line: its syntax and field types only;
// analyzerd.ParseMessage adds the protocol's rules.
func DecodeMessage(line []byte) (*Message, error) { return decode(line, messageCodec, true) }

// DecodeReply parses one reply line as a ReliableClient reads it.
func DecodeReply(line []byte) (*Reply, error) { return decode(line, replyCodec, true) }

// DecodeSnapshot parses a snapshot file.
func DecodeSnapshot(data []byte) (*Snapshot, error) { return decode(data, snapshotCodec, true) }
