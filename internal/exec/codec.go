package exec

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"unsafe"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Versioned binary format of compiled programs — the one form a
// Program takes. Compile writes a program's file itself and then views
// it, exactly as DecodeProgram views a file read back from the disk
// tier: both build the Program through newProgram, which views and
// proves it (checkPlan). WriteProgram and EncodeProgram only reseal the
// header's options fingerprint over the bytes a program already holds.
//
// A program file is its replay core: exactly what a replay reads — the
// step headers, the per-node delivery counts, the sparse traffic ids
// and the descriptor replay plan — plus the totals and the measure a
// caller reads without replaying, sealed by one CRC32. Its tables are
// flat little-endian arrays laid out field-for-field like the
// in-memory form, so viewing it on a little-endian host is a handful
// of bounds-checked slice views over the bytes (zero copies; big-endian
// hosts take an element-wise fallback). The schedule itself is not in
// the file: the header carries its 64-bit digest (digest.go), and
// Program.Schedule() re-plans it from a recorded source and checks it
// against that digest.
//
// The header carries the fabric fingerprint and the compile-options
// fingerprint (progcache.Fingerprint: the traffic matrix); Compile
// writes 0 there and the writers reseal it.
// DecodeProgram rejects short, truncated, corrupted, version- or
// fingerprint-mismatched input with descriptive errors and proves every
// index a replay would follow (checkPlan), so a file that decodes
// cannot make the executor read out of bounds.
//
// Format v7, all integers little-endian, 4-byte aligned:
//
//	magic "TXPG" | u16 version | u8 flags | u8 period | u64 optFP
//	  flags: 1 replay, 2 full traffic, 8 relative order (4 is retired);
//	  period: the lattice period of relative order, else reserved (0)
//	u64 digest (the schedule digest, see digest.go)
//	u32 fileLen
//	u32 len + fabric fingerprint string, padded to 4
//	u32 x6: n, numSteps, numPhases, maxSharing, numTraffic, numPayload
//	u64 x4: measure steps, blocks, hops, rearranged
//	steps     numSteps x 5 u32 (phaseIndex stepIndex sharing maxBlocks maxHops)
//	replay section                         | only when flagReplay:
//	  perDest    n x i32
//	  traffic    numTraffic x i32          | only when not flagFullTraffic
//	  u32 x3: numDesc, numMoves, logSize
//	  moveOff    (numSteps+1) x i32 (per-step log-move offsets)
//	  moves      numMoves x 5 i32 (src payLen descOff descLen insPos)
//	  descBase   (n+1) x i32 (per-node log-region prefix)
//	  descs      numDesc x 4 i32 (start count blocklen stride)
//	  deliverOff (n+1) x i32 (per-node delivery descriptor windows)
//	u32 CRC32 (IEEE) over the file before it
//
// numPayload is the schedule's payload id count, which bounds the log
// and gives BytesMoved (4 bytes per id). Only transfers some later
// transfer forwards from have a log move; last-hop transfers appear
// only through the per-node delivery descriptors (see descriptor.go).
// The fields' ranges are the format's limits, which Compile enforces:
// block counts below 2^32, payload ids below 2^31 and a file below
// 4 GiB. Compile also keeps the route-leg limits of the formats that
// stored routes (at most 255 legs per transfer, each on a dimension
// below 256 and at most 65,535 hops long), so which schedules compile
// does not depend on the format version.
//
// This build reads and writes v7 only. A file of any other version
// (e.g. a warm disk cache written by an older build) is a decode error,
// which the disk tier turns into a miss and a delete. Derived state
// (per-step log-move element counts, the delivery layout prefix and
// reciprocal) is recomputed when a program is viewed and never
// serialized.

// CodecVersion is the program file format version this build reads and
// writes.
const CodecVersion = 7

const codecMagic = "TXPG"

// flagRelative marks a full-traffic torus program whose initial blocks
// lie in relative order (classes.go) under the lattice whose period
// header byte 7 holds. It leaves the layout as it is, so a file without
// it reads as it always did.
const (
	flagReplay      = 1 << 0
	flagFullTraffic = 1 << 1
	flagRelative    = 1 << 3
	flagKnown       = flagReplay | flagFullTraffic | flagRelative
)

// maxDecodeBlocks bounds the dense block-id space (n*n) a decoder will
// reconstruct, so a corrupt or hostile header cannot demand an
// absurd allocation before any real content is validated. 2^26 ids
// (a 8192-node fabric) is far beyond any shape this repository runs.
const maxDecodeBlocks = 1 << 26

var (
	errTruncated = errors.New("program file truncated")
)

// hostLittle reports the host byte order; the zero-copy decode views
// require little-endian (the file format's order).
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// The file's log-move and descriptor records are runs of int32 fields
// in their structs' declaration order, so viewRecords can view them in
// place. These declarations fail to compile if a struct's size drifts
// from its record's.
var (
	_ [unsafe.Sizeof(logMove{}) - 20]struct{}
	_ [20 - unsafe.Sizeof(logMove{})]struct{}
	_ [unsafe.Sizeof(xdesc{}) - 16]struct{}
	_ [16 - unsafe.Sizeof(xdesc{})]struct{}
)

func aligned4(b []byte) bool {
	return len(b) == 0 || uintptr(unsafe.Pointer(&b[0]))&3 == 0
}

// asInt32s views b (length a multiple of 4) as little-endian int32s —
// zero-copy on aligned little-endian hosts, copied otherwise.
func asInt32s(b []byte) []int32 {
	if len(b) == 0 {
		return nil
	}
	if hostLittle && aligned4(b) {
		return unsafe.Slice((*int32)(unsafe.Pointer(&b[0])), len(b)/4)
	}
	out := make([]int32, len(b)/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(b[i*4:]))
	}
	return out
}

// ---- Layout and writing.

// coreLayout is the byte offset of every table of a program file,
// derived from the counts alone; end is the file's length, CRC
// included.
type coreLayout struct {
	steps, perDest, traffic, counts             int
	moveOff, moves, descBase, descs, deliverOff int
	end                                         int
}

// layoutCore lays out a file with fpLen bytes of fabric fingerprint and
// numSteps steps; replay adds the replay section for n nodes,
// numTraffic sparse traffic ids, numMoves log moves and numDesc
// descriptors.
func layoutCore(fpLen, numSteps int, replay bool, n, numTraffic, numMoves, numDesc int) coreLayout {
	var l coreLayout
	l.steps = 32 + padded4(fpLen) + 6*4 + 4*8
	off := l.steps + numSteps*20
	if replay {
		l.perDest = off
		l.traffic = l.perDest + 4*n
		l.counts = l.traffic + 4*numTraffic
		l.moveOff = l.counts + 3*4
		l.moves = l.moveOff + (numSteps+1)*4
		l.descBase = l.moves + numMoves*20
		l.descs = l.descBase + (n+1)*4
		l.deliverOff = l.descs + numDesc*16
		off = l.deliverOff + (n+1)*4
	}
	l.end = off + 4
	return l
}

func putU32(b []byte, off int, v uint32) { binary.LittleEndian.PutUint32(b[off:], v) }
func putI32(b []byte, off int, v int32)  { binary.LittleEndian.PutUint32(b[off:], uint32(v)) }

// putI32s writes vals little-endian at b[off:] — one bulk copy on
// little-endian hosts.
func putI32s(b []byte, off int, vals []int32) {
	if len(vals) == 0 {
		return
	}
	if hostLittle {
		copy(b[off:], unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*4))
		return
	}
	for i, v := range vals {
		putI32(b, off+4*i, v)
	}
}

// putRecord writes a log-move or descriptor record at b[off:], its
// int32 fields in declaration order: one store on little-endian hosts
// (off is 4-aligned in an 8-aligned buffer).
func putRecord[T logMove | xdesc](b []byte, off int, rec T) {
	dst := b[off : off+int(unsafe.Sizeof(rec))]
	if hostLittle {
		*(*T)(unsafe.Pointer(&dst[0])) = rec
		return
	}
	putI32s(dst, 0, unsafe.Slice((*int32)(unsafe.Pointer(&rec)), len(dst)/4))
}

// seal writes the CRC32 of a file's bytes into its last four.
func seal(file []byte) {
	body := file[:len(file)-4]
	putU32(file, len(body), crc32.ChecksumIEEE(body))
}

// newCore allocates the program's exact-size file for numMoves log
// moves and numDesc descriptors, and writes every field but the
// per-step log-move offsets, the log moves, the descriptors, the
// delivery windows and the CRC: planDescriptors' compaction writes
// those at the returned offsets, and Compile seals the file. The
// options fingerprint stays 0 until a writer reseals it.
func (p *Program) newCore(numMoves, numDesc int) (coreLayout, error) {
	fp := p.fab.Fingerprint()
	var flags byte
	numTraffic := 0
	if p.replay {
		flags |= flagReplay
		if p.fullTraffic {
			flags |= flagFullTraffic
			if p.period > 0 {
				flags |= flagRelative
			}
		} else {
			numTraffic = len(p.trafficIDs)
		}
	}
	l := layoutCore(len(fp), len(p.steps), p.replay, p.n, numTraffic, numMoves, numDesc)
	if int64(l.end) > math.MaxUint32 {
		return l, fmt.Errorf("exec: a %d-byte program exceeds the program format's 4 GiB limit", l.end)
	}
	b := make([]byte, l.end)
	copy(b, codecMagic)
	binary.LittleEndian.PutUint16(b[4:], CodecVersion)
	b[6], b[7] = flags, byte(p.period)
	binary.LittleEndian.PutUint64(b[16:], p.digest)
	putU32(b, 24, uint32(l.end))
	putU32(b, 28, uint32(len(fp)))
	copy(b[32:], fp)
	off := 32 + padded4(len(fp))
	for _, v := range [...]int{p.n, len(p.steps), p.numPhases,
		p.maxSharing, numTraffic, p.numPayload} {
		putU32(b, off, uint32(v))
		off += 4
	}
	m := &p.measure
	for _, v := range [...]int{m.Steps, m.Blocks, m.Hops, m.RearrangedBlocks} {
		binary.LittleEndian.PutUint64(b[off:], uint64(v))
		off += 8
	}
	for si := range p.steps {
		ps := &p.steps[si]
		for k, v := range [...]int{ps.phaseIndex, ps.stepIndex, ps.sharing, ps.maxBlocks, ps.maxHops} {
			putU32(b, l.steps+20*si+4*k, uint32(v))
		}
	}
	if p.replay {
		putI32s(b, l.perDest, p.perDest)
		putI32s(b, l.traffic, p.trafficIDs[:numTraffic])
		putU32(b, l.counts, uint32(numDesc))
		putU32(b, l.counts+4, uint32(numMoves))
		putI32(b, l.counts+8, p.descBase[p.n])
		putI32s(b, l.descBase, p.descBase)
	}
	p.core = b
	return l, nil
}

// WriteProgram writes p's program file to w: the bytes p already holds
// — Compile wrote them, and a decoded program views its file's — with
// the header resealed under optFP, the compile-options fingerprint the
// program was compiled under (progcache.Fingerprint). DecodeProgram
// re-checks it, so a cached file can never be replayed against options
// it was not compiled for. Nothing is re-encoded, so
// compile→write→decode→write is byte-identical.
func WriteProgram(w io.Writer, p *Program, optFP uint64) (int64, error) {
	if p == nil {
		return 0, fmt.Errorf("exec: encode nil program")
	}
	var head [24]byte
	copy(head[:], p.core)
	binary.LittleEndian.PutUint64(head[8:], optFP)
	body := p.core[len(head) : len(p.core)-4]
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(crc32.ChecksumIEEE(head[:]), crc32.IEEETable, body))
	var n int64
	for _, b := range [...][]byte{head[:], body, sum[:]} {
		m, err := w.Write(b)
		n += int64(m)
		if err != nil {
			return n, fmt.Errorf("exec: encode: %w", err)
		}
	}
	return n, nil
}

// EncodeProgram returns p's program file (see WriteProgram) as one
// buffer of its exact length, for callers that want the bytes.
func EncodeProgram(p *Program, optFP uint64) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("exec: encode nil program")
	}
	b := bytes.NewBuffer(make([]byte, 0, len(p.core)))
	if _, err := WriteProgram(b, p, optFP); err != nil {
		return nil, err
	}
	return b.Bytes(), nil
}

// routeLegs is tr.Segments() without its per-call allocation: Segs
// when present, otherwise the single (Dim, Dir, Hops) leg in one.
func routeLegs(tr *schedule.Transfer, one *[1]schedule.Seg) []schedule.Seg {
	if tr.Segs != nil {
		return tr.Segs
	}
	one[0] = schedule.Seg{Dim: tr.Dim, Dir: tr.Dir, Hops: tr.Hops}
	return one[:]
}

// padded4 rounds n up to a multiple of 4.
func padded4(n int) int { return (n + 3) &^ 3 }

// ---- Decoding.

// creader is a bounds-checked cursor over the file buffer: every read
// that would pass the end sets err and returns zeros, so a truncated
// or corrupt file produces one descriptive error and no panics.
type creader struct {
	b   []byte
	off int
	err error
}

func (r *creader) fail() {
	if r.err == nil {
		r.err = errTruncated
	}
}

func (r *creader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || n > len(r.b)-r.off {
		r.fail()
		return nil
	}
	b := r.b[r.off : r.off+n : r.off+n]
	r.off += n
	return b
}

func (r *creader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *creader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *creader) pad4() {
	if pad := -r.off & 3; pad != 0 {
		r.take(pad)
	}
}

// count reads a u32 element count and verifies the section it sizes
// (count*elem bytes) fits in the remaining buffer before the caller
// allocates anything proportional to it.
func (r *creader) count(elem int) int {
	c := int(r.u32())
	if r.err == nil && (c < 0 || elem > 0 && c > (len(r.b)-r.off)/elem) {
		r.fail()
	}
	if r.err != nil {
		return 0
	}
	return c
}

// DecodeProgram reconstructs a compiled program from data (a buffer
// produced by WriteProgram or EncodeProgram). f must be the fabric the
// program was compiled on and optFP the compile-options fingerprint
// used at encode time; both are checked against the embedded header so
// a stale or misfiled cache artifact is rejected, not replayed. The
// decoded program replays immediately; it has no schedule source until
// one is recorded (Program.SetSource).
//
// On little-endian hosts the program's tables are views over data, and
// decode cost is the CRC, the header walk and the proofs of the replay
// plan (checkPlan). The caller must not mutate data afterwards.
func DecodeProgram(data []byte, f topology.Fabric, optFP uint64) (*Program, error) {
	if f == nil {
		return nil, fmt.Errorf("exec: decode: nil fabric")
	}
	if len(data) < 32 || string(data[:4]) != codecMagic {
		return nil, fmt.Errorf("exec: decode: not a program file (bad magic)")
	}
	if version := binary.LittleEndian.Uint16(data[4:]); version != CodecVersion {
		return nil, fmt.Errorf("exec: decode: program file version %d, this build reads %d", version, CodecVersion)
	}
	if fileLen := binary.LittleEndian.Uint32(data[24:]); int64(fileLen) != int64(len(data)) || fileLen&3 != 0 {
		return nil, fmt.Errorf("exec: decode: header frames a %d-byte file, got %d bytes: file truncated or corrupted", fileLen, len(data))
	}
	body, crcField := data[:len(data)-4], binary.LittleEndian.Uint32(data[len(data)-4:])
	if got := crc32.ChecksumIEEE(body); got != crcField {
		return nil, fmt.Errorf("exec: decode: checksum mismatch (file %08x, computed %08x): file corrupted or truncated", crcField, got)
	}
	if gotFP := binary.LittleEndian.Uint64(data[8:]); gotFP != optFP {
		return nil, fmt.Errorf("exec: decode: options fingerprint %#x, want %#x: file was compiled under different options", gotFP, optFP)
	}
	p, err := newProgram(data, f, false)
	if err != nil {
		return nil, fmt.Errorf("exec: decode: %w", err)
	}
	return p, nil
}

// newProgram builds the Program a file describes: it walks the header,
// views its tables and proves every index a replay follows (checkPlan).
// The file's framing (its length, version and CRC) must already be
// checked. Compile's programs and decoded ones both come from here, so
// every program is trusted by the same proofs. compiled records that
// the file is Compile's own, whose node count is the fabric's: only
// decoded bytes are held to maxDecodeBlocks.
func newProgram(core []byte, f topology.Fabric, compiled bool) (*Program, error) {
	flags := core[6]
	if flags&^flagKnown != 0 {
		return nil, fmt.Errorf("unknown flags %#x", flags&^flagKnown)
	}
	r := &creader{b: core[:len(core)-4], off: 28}
	fabFP := string(r.take(r.count(1)))
	r.pad4()
	if r.err == nil && fabFP != f.Fingerprint() {
		return nil, fmt.Errorf("program compiled for fabric %q, decoding on %q", fabFP, f.Fingerprint())
	}

	n := int(r.u32())
	numSteps := int(r.u32())
	numPhases := int(r.u32())
	maxSharing := int(r.u32())
	numTraffic := int(r.u32())
	numPayload := int(r.u32())
	mSteps, mBlocks := r.u64(), r.u64()
	mHops, mRearr := r.u64(), r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if n <= 0 || !compiled && int64(n)*int64(n) > maxDecodeBlocks || n != f.Nodes() {
		return nil, fmt.Errorf("node count %d, fabric %s has %d", n, f, f.Nodes())
	}
	replay := flags&flagReplay != 0
	fullTraffic := flags&flagFullTraffic != 0
	if fullTraffic && !replay || numTraffic != 0 && (!replay || fullTraffic) || numPayload != 0 && !replay {
		return nil, fmt.Errorf("inconsistent traffic flags")
	}
	period := 0
	if flags&flagRelative != 0 {
		period = int(core[7])
		if _, ok := validLattice(f, period); !ok || !fullTraffic {
			return nil, fmt.Errorf("relative order of period %d on a program that is not a full-traffic torus program of that lattice", period)
		}
	}
	if numPayload < 0 {
		return nil, fmt.Errorf("payload count %d invalid", numPayload)
	}

	p := &Program{
		fab: f, n: n, numBlocks: n * n,
		replay:      replay,
		fullTraffic: fullTraffic,
		period:      period,
		maxSharing:  maxSharing,
		numPayload:  numPayload,
		numPhases:   numPhases,
		digest:      binary.LittleEndian.Uint64(core[16:]),
		core:        core,
	}
	p.measure.Steps = int(mSteps)
	p.measure.Blocks = int(mBlocks)
	p.measure.Hops = int(mHops)
	p.measure.RearrangedBlocks = int(mRearr)

	stepHdr := asInt32s(r.take(numSteps * 20))
	var (
		perDest, trafficIDs, moveOff, descBase, deliverOff []int32
		numDesc, numMoves, logSize                         int
		movesRaw, descRaw                                  []byte
	)
	if replay {
		perDest = asInt32s(r.take(n * 4))
		if !fullTraffic {
			trafficIDs = asInt32s(r.take(numTraffic * 4))
		}
		numDesc = int(r.u32())
		numMoves = int(r.u32())
		logSize = int(r.u32())
		moveOff = asInt32s(r.take((numSteps + 1) * 4))
		movesRaw = r.take(numMoves * 20)
		descBase = asInt32s(r.take((n + 1) * 4))
		descRaw = r.take(numDesc * 16)
		deliverOff = asInt32s(r.take((n + 1) * 4))
	}
	if r.err != nil {
		return nil, r.err
	}
	if r.off != len(r.b) {
		return nil, fmt.Errorf("%d trailing bytes in the core", len(r.b)-r.off)
	}

	// Step table: validate every header field the replay and the
	// telemetry post-pass index with.
	p.steps = make([]pstep, numSteps)
	for si := 0; si < numSteps; si++ {
		h := stepHdr[si*5:]
		if h[0] < 0 || int(h[0]) >= numPhases {
			return nil, fmt.Errorf("step %d names phase %d of %d phases", si, h[0], numPhases)
		}
		if h[1] < 0 || h[2] < 1 || h[3] < 0 || h[4] < 0 {
			return nil, fmt.Errorf("step %d header invalid", si)
		}
		p.steps[si] = pstep{
			phaseIndex: int(h[0]), stepIndex: int(h[1]),
			sharing: int(h[2]), maxBlocks: int(h[3]), maxHops: int(h[4]),
		}
	}
	if replay {
		// Every node's delivery count must be its share of the traffic
		// matrix: the delivery layout is sized from these counts.
		if fullTraffic {
			for v := 0; v < n; v++ {
				if int(perDest[v]) != n {
					return nil, fmt.Errorf("node %d delivery count %d, traffic addresses %d blocks to it", v, perDest[v], n)
				}
			}
		} else {
			addressed := make([]int32, n)
			for _, id := range trafficIDs {
				if id < 0 || int(id) >= p.numBlocks {
					return nil, fmt.Errorf("traffic id %d out of range", id)
				}
				addressed[int(id)%n]++
			}
			for v := 0; v < n; v++ {
				if perDest[v] != addressed[v] {
					return nil, fmt.Errorf("node %d delivery count %d, traffic addresses %d blocks to it", v, perDest[v], addressed[v])
				}
			}
			p.trafficIDs = trafficIDs
		}
		p.perDest = perDest
		// Delivery layout prefix and reciprocal — derived, never
		// serialized.
		p.deriveDelivery()
		// A log holds each node's initial blocks and every log move's
		// arrivals, and a move carries distinct blocks, at most every
		// block there is: the file's move count bounds the arena a
		// decoded program may ask for.
		if logSize < 0 || logSize > p.numBlocks+numPayload || int64(logSize) > int64(p.numBlocks)*int64(numMoves+1) {
			return nil, fmt.Errorf("implausible log size %d", logSize)
		}
		if int(descBase[n]) != logSize {
			return nil, fmt.Errorf("log region prefix does not cover the log")
		}
		p.moves = viewRecords[logMove](movesRaw, numMoves)
		p.moveOff = moveOff
		p.descBacking = viewRecords[xdesc](descRaw, numDesc)
		p.descBase = descBase
		p.deliverOff = deliverOff
		if err := p.checkPlan(); err != nil {
			return nil, err
		}
		p.deriveReplayStats()
	}
	return p, nil
}

// viewRecords views b, which holds at least n records, as n records of
// T — in place wherever asInt32s views in place, and over asInt32s'
// decoded copy otherwise.
func viewRecords[T logMove | xdesc](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&asInt32s(b)[0])), n)
}

// checkPlan proves a replay plan safe to execute with unchecked
// gathers, whatever its tables hold, so a decoded plan cannot make a
// replay read or write out of bounds however the file was corrupted,
// nor make the parallel replay race:
//
//   - every descriptor reads inside the log;
//   - every log move's descriptors expand to its payload size and read
//     only its sender's log region — the sender shard the parallel
//     replay's race-freedom rests on;
//   - every insert window lies inside one node's log region, after that
//     node's initial contents, so the initial blocks a replay never
//     rewrites stay as the arena wrote them;
//   - the insert windows of one step are pairwise disjoint, and no log
//     move of a step reads a slot a window of that step writes — so the
//     one barrier per step orders every write before every read of it,
//     and the serial replay, which runs a step's moves in order, reads
//     what the parallel one reads;
//   - node v's delivery descriptors expand to exactly its delivery
//     count, so the delivery pass writes every slot of the layout once.
//
// perDest, the traffic ids and the delivery layout must already be
// valid, and descBase[n] must be the log size.
func (p *Program) checkPlan() error {
	n := p.n
	descBase, descs := p.descBase, p.descBacking
	logSize := int64(descBase[n])
	// initEnd[v] ends node v's initial contents (n blocks each under
	// the full matrix).
	initEnd := make([]int32, n)
	if p.fullTraffic {
		for v := range initEnd {
			initEnd[v] = int32(n)
		}
	} else {
		for _, id := range p.trafficIDs {
			initEnd[divRecip(uint32(id), p.recip)]++
		}
	}
	if descBase[0] != 0 {
		return fmt.Errorf("log region prefix does not start at 0")
	}
	for v := 0; v < n; v++ {
		if descBase[v+1] < descBase[v] {
			return fmt.Errorf("log region prefix not monotone at node %d", v)
		}
		if descBase[v+1]-descBase[v] < initEnd[v] {
			return fmt.Errorf("node %d log region smaller than its initial contents", v)
		}
		initEnd[v] += descBase[v]
	}
	for i := range descs {
		d := &descs[i]
		if d.count < 1 || d.blocklen < 1 || d.count > 1 && d.stride == 0 {
			return fmt.Errorf("descriptor %d malformed", i)
		}
		if lo, hi := d.span(); lo < 0 || hi > logSize {
			return fmt.Errorf("descriptor %d reads outside the log", i)
		}
	}

	numSteps := len(p.steps)
	if p.moveOff[0] != 0 || int(p.moveOff[numSteps]) != len(p.moves) {
		return fmt.Errorf("step move offsets do not cover the log moves")
	}
	for si := 0; si < numSteps; si++ {
		if p.moveOff[si+1] < p.moveOff[si] {
			return fmt.Errorf("step move offsets not monotone at step %d", si)
		}
	}
	// winStep[v] is 1 + the last step with a window into node v, and
	// winAt[v] the first such window's move. A step with two windows
	// into one node (no one-port schedule has one) is checked through
	// its windows sorted by position instead.
	// reads[i-lo] is the span [lo, hi) that move i of the step reads.
	winStep := make([]int32, n)
	winAt := make([]int32, n)
	var sorted []int32
	var reads [][2]int64
	v := -1 // the previous move's insert node
	for si := 0; si < numSteps; si++ {
		lo, hi := p.moveOff[si], p.moveOff[si+1]
		shared := false
		reads = reads[:0]
		for i := lo; i < hi; i++ {
			m := &p.moves[i]
			if m.src < 0 || int(m.src) >= n || m.payLen < 1 || m.descOff < 0 || m.descLen < 1 ||
				int64(m.descOff)+int64(m.descLen) > int64(len(descs)) {
				return fmt.Errorf("log move %d malformed", i)
			}
			md := descs[m.descOff : m.descOff+m.descLen]
			if expandedLen(md) != int64(m.payLen) {
				return fmt.Errorf("log move %d descriptors expand to the wrong payload size", i)
			}
			rlo, rhi := int64(descBase[m.src]), int64(descBase[m.src+1])
			span := [2]int64{rhi, rlo}
			for _, d := range md {
				lo, hi := d.span()
				if lo < rlo || hi > rhi {
					return fmt.Errorf("log move %d reads outside its sender node %d's log region", i, m.src)
				}
				span = [2]int64{min(span[0], lo), max(span[1], hi)}
			}
			reads = append(reads, span)
			// The window's node owns the non-empty region holding insPos.
			// Moves mostly insert at the node after the previous move's, so
			// that one is tried before a binary search over the prefix.
			ins, end := int64(m.insPos), int64(m.insPos)+int64(m.payLen)
			if v++; v >= n || int64(descBase[v]) > ins || ins >= int64(descBase[v+1]) {
				v = 0
				for size := n; size > 1; size -= size / 2 {
					if int64(descBase[v+size/2]) <= ins {
						v += size / 2
					}
				}
			}
			switch {
			case ins < 0 || end > int64(descBase[v+1]):
				return fmt.Errorf("log move %d inserts at [%d,%d), outside any node's log region", i, ins, end)
			case ins < int64(initEnd[v]):
				return fmt.Errorf("log move %d inserts at [%d,%d), over node %d's initial contents", i, ins, end, v)
			}
			if winStep[v] == int32(si+1) {
				shared = true
				continue
			}
			winStep[v], winAt[v] = int32(si+1), i
		}
		if shared {
			sorted = sorted[:0]
			for i := lo; i < hi; i++ {
				sorted = append(sorted, i)
			}
			slices.SortFunc(sorted, func(a, b int32) int { return cmp.Compare(p.moves[a].insPos, p.moves[b].insPos) })
			for k := 1; k < len(sorted); k++ {
				a, b := &p.moves[sorted[k-1]], &p.moves[sorted[k]]
				if a.insPos+a.payLen > b.insPos {
					return fmt.Errorf("log move %d inserts at [%d,%d), overlapping log move %d's insert window in step %d",
						max(sorted[k-1], sorted[k]), b.insPos, b.insPos+b.payLen, min(sorted[k-1], sorted[k]), si)
				}
			}
		}
		for i := lo; i < hi; i++ {
			m := &p.moves[i]
			if !shared {
				// A move that reads nowhere near its sender's window of
				// the step, as in every append-only program, is clear.
				if winStep[m.src] != int32(si+1) {
					continue
				}
				x := &p.moves[winAt[m.src]]
				if r := reads[i-lo]; r[1] <= int64(x.insPos) || r[0] >= int64(x.insPos)+int64(x.payLen) {
					continue
				}
			}
			for _, d := range descs[m.descOff : m.descOff+m.descLen] {
				w := int32(-1)
				switch {
				case shared:
					lo, hi := d.span()
					k, _ := slices.BinarySearchFunc(sorted, lo, func(x int32, lo int64) int {
						return cmp.Compare(int64(p.moves[x].insPos)+int64(p.moves[x].payLen), lo+1)
					})
					for ; k < len(sorted) && int64(p.moves[sorted[k]].insPos) < hi; k++ {
						if x := &p.moves[sorted[k]]; d.reads(x.insPos, x.insPos+x.payLen) {
							w = sorted[k]
							break
						}
					}
				case winStep[m.src] == int32(si+1):
					if x := &p.moves[winAt[m.src]]; d.reads(x.insPos, x.insPos+x.payLen) {
						w = winAt[m.src]
					}
				}
				if w >= 0 {
					return fmt.Errorf("log move %d reads node %d's log where log move %d inserts in the same step %d", i, m.src, w, si)
				}
			}
		}
	}

	off := p.deliverOff
	if off[0] < 0 || int(off[n]) > len(descs) {
		return fmt.Errorf("delivery descriptor windows outside the descriptor table")
	}
	for v := 0; v < n; v++ {
		if off[v+1] < off[v] || off[v+1] > off[n] {
			return fmt.Errorf("delivery descriptor windows not monotone at node %d", v)
		}
		if e := expandedLen(descs[off[v]:off[v+1]]); e != int64(p.perDest[v]) {
			return fmt.Errorf("node %d delivery descriptors expand to %d blocks, it receives %d", v, e, p.perDest[v])
		}
	}
	return nil
}

// span returns the log positions [lo, hi) d's windows lie between.
func (d *xdesc) span() (lo, hi int64) {
	first := int64(d.start)
	last := first + int64(d.count-1)*int64(d.stride)
	return min(first, last), max(first, last) + int64(d.blocklen)
}

// reads reports whether one of d's windows reads a slot of [a, b). Its
// windows start every |stride| slots from the lowest.
func (d *xdesc) reads(a, b int32) bool {
	lo, hi := d.span()
	if hi <= int64(a) || lo >= int64(b) {
		return false
	}
	st, bl := int64(d.stride), int64(d.blocklen)
	st = max(st, -st)
	if d.count == 1 || st <= bl {
		return true
	}
	// The first window that ends after a, if any, starts before b.
	k := max(0, (int64(a)-bl-lo)/st+1)
	return k < int64(d.count) && lo+k*st < int64(b)
}

// expandedLen returns the element count descs expand to, or -1 once it
// passes MaxInt32 (no window a decoder accepts is that long), so a
// corrupt table's sum can never wrap.
func expandedLen(descs []xdesc) int64 {
	var total int64
	for i := range descs {
		total += int64(descs[i].count) * int64(descs[i].blocklen)
		if total > math.MaxInt32 {
			return -1
		}
	}
	return total
}
