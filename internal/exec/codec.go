package exec

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"unsafe"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Versioned binary format of compiled programs — the one form a
// Program takes. Compile writes a program's file itself and then views
// it, exactly as DecodeProgram views a file read back from the disk
// tier: both build the Program through newProgram, which views and
// proves the core (checkPlan). WriteProgram and EncodeProgram only
// reseal the header's options fingerprint over the bytes a program
// already holds. A program file is split along the executor's own
// hot/cold boundary into two sections, each sealed by its own CRC32:
//
//   - The replay core holds exactly what a replay reads — the step
//     headers, the per-node delivery counts, the sparse traffic ids and
//     the descriptor replay plan — plus the totals a decoder would
//     otherwise derive from the transfer table. Its tables are flat
//     little-endian arrays laid out field-for-field like the in-memory
//     form, so viewing it on a little-endian host is a handful of
//     bounds-checked slice views over the bytes (zero copies; big-endian
//     hosts take an element-wise fallback). A program replays, serially
//     or in parallel, without reading anything else.
//   - The cold tail holds what only telemetry and Program.Schedule
//     need — the transfer table, phase names, declared block counts,
//     route legs and the payload ids. Nothing reads it until the first
//     Schedule(), which checks its CRC and tables and materializes the
//     schedule (see materialize.go), also rebuilding the link table by
//     re-walking the routes on the fabric. A replay-only process never
//     touches it, so on a mapped file its pages never become resident;
//     the disk tier serves a fresh compile from the file it stored,
//     loaded back, for the same reason.
//
// The header carries the fabric fingerprint and the compile-options
// fingerprint (progcache.Fingerprint: SkipChecks + the traffic
// matrix); Compile writes 0 there and the writers reseal it.
// DecodeProgram rejects short, truncated, corrupted, version- or
// fingerprint-mismatched input with descriptive errors and proves every
// index a replay would follow (checkPlan), so a file that decodes
// cannot make the executor read out of bounds. A tail that fails its
// checksum or its checks decodes, replays, and fails Schedule() (see
// Program.OnTailError).
//
// Format v6, all integers little-endian, sections 4-byte aligned:
//
//	core:
//	  magic "TXPG" | u16 version | u8 flags | u8 reserved | u64 optFP
//	  u32 coreLen, u32 tailLen (coreLen + tailLen is the file size)
//	  u32 len + fabric fingerprint string, padded to 4
//	  u32 x8: n, numSteps, numTransfers, numPhases, maxSharing,
//	          numDomains, numTraffic, numPayload
//	  u64 x4: measure steps, blocks, hops, rearranged
//	  steps     numSteps x 5 u32 (phaseIndex stepIndex sharing maxBlocks maxHops)
//	  parallelErr u32 len + bytes, padded   | only when flagParallelErr
//	  replay section                         | only when flagReplay:
//	    perDest    n x i32
//	    traffic    numTraffic x i32          | only when not flagFullTraffic
//	    u32 x3: numDesc, numMoves, logSize
//	    moveOff    (numSteps+1) x i32 (per-step log-move offsets)
//	    moves      numMoves x 5 i32 (src payLen descOff descLen insPos)
//	    descBase   (n+1) x i32 (per-node log-region prefix)
//	    descs      numDesc x 4 i32 (start count blocklen stride)
//	    deliverOff (n+1) x i32 (per-node delivery descriptor windows)
//	  u32 CRC32 (IEEE) over the core before it
//	tail:
//	  stepT     (numSteps+1) x u32 (per-step transfer offsets)
//	  transfers numTransfers x 6 i32 (src dst payOff payLen linkOff linkLen)
//	  cold section:
//	    payload   numPayload x i32 (payload ids)
//	    blocks    numTransfers x u32 (declared Blocks per transfer)
//	    shared    ceil(numSteps/8) bytes bitmap, padded to 4
//	    phases    numPhases x (u32 len + name padded, u32 steps, u32 rearrange)
//	    segs      per transfer: u8 count + count x (u8 dim, u8 dir, u16 hops),
//	              stream padded to 4
//	  u32 CRC32 (IEEE) over the tail before it
//
// numPayload is the payload id count: the transfers' payload windows
// tile [0, numPayload) in transfer order, and their link windows tile
// the expanded routes the same way, so the count bounds the log and
// gives BytesMoved (4 bytes per id) without the transfer table. Only
// transfers some later transfer forwards from have a log move; last-hop
// transfers appear only through the per-node delivery descriptors (see
// descriptor.go). The fields' ranges are the format's limits, which
// Compile enforces: at most 255 route legs per transfer, each on a
// dimension below 256 and at most 65,535 hops long, block counts below
// 2^32, and a file below 4 GiB.
//
// This build reads and writes v6 only. A file of any other version
// (e.g. a warm disk cache written by an older build) is a decode error,
// which the disk tier turns into a miss and a delete. Derived state
// (per-step log-move element counts, the delivery layout prefix and
// reciprocal) is recomputed when a program is viewed and never
// serialized.

// CodecVersion is the program file format version this build reads and
// writes.
const CodecVersion = 6

const codecMagic = "TXPG"

const (
	flagReplay      = 1 << 0
	flagFullTraffic = 1 << 1
	flagParallelErr = 1 << 2
	flagKnown       = flagReplay | flagFullTraffic | flagParallelErr
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

// The file's transfer, log-move and descriptor records are runs of
// int32 fields in their structs' declaration order, so viewRecords can
// view them in place. These declarations fail to compile if a struct's
// size drifts from its record's.
var (
	_ [unsafe.Sizeof(ptransfer{}) - 24]struct{}
	_ [24 - unsafe.Sizeof(ptransfer{})]struct{}
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

// coreLayout is the byte offset of every table of a program file's
// replay core, derived from the counts alone; end is the core's length,
// CRC included.
type coreLayout struct {
	steps, parallelErr, perDest, traffic, counts int
	moveOff, moves, descBase, descs, deliverOff  int
	end                                          int
}

// layoutCore lays out a core with fpLen bytes of fabric fingerprint,
// numSteps steps and, when errLen >= 0, a parallelErr message of errLen
// bytes; replay adds the replay section for n nodes, numTraffic sparse
// traffic ids, numMoves log moves and numDesc descriptors.
func layoutCore(fpLen, numSteps, errLen int, replay bool, n, numTraffic, numMoves, numDesc int) coreLayout {
	var l coreLayout
	l.steps = 24 + 4 + padded4(fpLen) + 8*4 + 4*8
	l.parallelErr = l.steps + numSteps*20
	off := l.parallelErr
	if errLen >= 0 {
		off += 4 + padded4(errLen)
	}
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

// tailLayout is the byte offset of every table of a program file's
// cold tail; end is the tail's length, CRC included.
type tailLayout struct {
	stepT, transfers, payload, blocks, shared, phases, segs int
	end                                                     int
}

// layoutTail lays out a tail for numSteps steps, numTransfers transfers
// and numPayload payload ids, with phaseBytes of phase records and
// segBytes of route legs.
func layoutTail(numSteps, numTransfers, numPayload, phaseBytes, segBytes int) tailLayout {
	var l tailLayout
	l.transfers = (numSteps + 1) * 4
	l.payload = l.transfers + numTransfers*24
	l.blocks = l.payload + numPayload*4
	l.shared = l.blocks + numTransfers*4
	l.phases = l.shared + padded4((numSteps+7)/8)
	l.segs = l.phases + phaseBytes
	l.end = l.segs + padded4(segBytes) + 4
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

// putRecord writes a transfer, log-move or descriptor record at
// b[off:], its int32 fields in declaration order: one store on
// little-endian hosts (off is 4-aligned in an 8-aligned buffer).
func putRecord[T ptransfer | logMove | xdesc](b []byte, off int, rec T) {
	dst := b[off : off+int(unsafe.Sizeof(rec))]
	if hostLittle {
		*(*T)(unsafe.Pointer(&dst[0])) = rec
		return
	}
	putI32s(dst, 0, unsafe.Slice((*int32)(unsafe.Pointer(&rec)), len(dst)/4))
}

// seal writes the CRC32 of a section's bytes into its last four.
func seal(section []byte) {
	body := section[:len(section)-4]
	putU32(section, len(body), crc32.ChecksumIEEE(body))
}

// newCore allocates the program's exact-size replay core for numMoves
// log moves and numDesc descriptors, ahead of a tailLen-byte tail, and
// writes every field but the per-step log-move offsets, the log moves,
// the descriptors, the delivery windows and the CRC: planDescriptors'
// compaction writes those at the returned offsets, and Compile seals
// the core. The options fingerprint stays 0 until a writer reseals it.
func (p *Program) newCore(tailLen, numDomains, numMoves, numDesc int) (coreLayout, error) {
	fp := p.fab.Fingerprint()
	var flags byte
	errLen, errMsg := -1, ""
	if p.parallelErr != nil {
		flags |= flagParallelErr
		errMsg = p.parallelErr.Error()
		errLen = len(errMsg)
	}
	numTraffic := 0
	if p.replay {
		flags |= flagReplay
		if p.fullTraffic {
			flags |= flagFullTraffic
		} else {
			numTraffic = len(p.trafficIDs)
		}
	}
	l := layoutCore(len(fp), len(p.steps), errLen, p.replay, p.n, numTraffic, numMoves, numDesc)
	if size := int64(l.end) + int64(tailLen); size > math.MaxUint32 {
		return l, fmt.Errorf("exec: a %d-byte program exceeds the program format's 4 GiB limit", size)
	}
	b := make([]byte, l.end)
	copy(b, codecMagic)
	binary.LittleEndian.PutUint16(b[4:], CodecVersion)
	b[6] = flags
	putU32(b, 16, uint32(l.end))
	putU32(b, 20, uint32(tailLen))
	putU32(b, 24, uint32(len(fp)))
	copy(b[28:], fp)
	off := 28 + padded4(len(fp))
	for _, v := range [...]int{p.n, len(p.steps), p.numTransfers, p.coldPhases,
		p.maxSharing, numDomains, numTraffic, p.numPayload} {
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
	if errLen >= 0 {
		putU32(b, l.parallelErr, uint32(errLen))
		copy(b[l.parallelErr+4:], errMsg)
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

// WriteProgram writes p's program file to w: the replay core and the
// cold tail p already holds — Compile wrote both, and a decoded program
// views its file's — with the core's header resealed under optFP, the
// compile-options fingerprint the program was compiled under
// (progcache.Fingerprint). DecodeProgram re-checks it, so a cached file
// can never be replayed against options it was not compiled for.
// Nothing is re-encoded, so compile→write→decode→write is
// byte-identical. A program whose tail Schedule() rejected returns
// that error; a mapped tail that faults (its file truncated in place)
// returns an error too.
func WriteProgram(w io.Writer, p *Program, optFP uint64) (int64, error) {
	if p == nil {
		return 0, fmt.Errorf("exec: encode nil program")
	}
	if err := p.SchedErr(); err != nil {
		return 0, fmt.Errorf("exec: encode: %w", err)
	}
	var head [24]byte
	copy(head[:], p.core)
	binary.LittleEndian.PutUint64(head[8:], optFP)
	body := p.core[len(head) : len(p.core)-4]
	var sum [4]byte
	binary.LittleEndian.PutUint32(sum[:], crc32.Update(crc32.ChecksumIEEE(head[:]), crc32.IEEETable, body))
	var n int64
	err := guardTail(func() error {
		for _, b := range [...][]byte{head[:], body, sum[:], p.tail} {
			m, err := w.Write(b)
			n += int64(m)
			if err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return n, fmt.Errorf("exec: encode: %w", err)
	}
	return n, nil
}

// EncodeProgram returns p's program file (see WriteProgram) as one
// buffer of its exact length, for callers that want the bytes.
func EncodeProgram(p *Program, optFP uint64) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("exec: encode nil program")
	}
	b := bytes.NewBuffer(make([]byte, 0, len(p.core)+len(p.tail)))
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
// decoded program replays immediately; its schedule (needed only for
// telemetry) materializes lazily from the cold tail on first
// Schedule() call.
//
// Decoding reads only the replay core: on little-endian hosts its
// tables are views over data, and decode cost is the core's CRC, the
// header walk and the proofs of the replay plan (checkPlan). The tail
// is framed by the header's lengths but not read, so the caller may
// hand in a mapped file whose tail pages stay on disk. The caller must
// not mutate data afterwards.
func DecodeProgram(data []byte, f topology.Fabric, optFP uint64) (*Program, error) {
	if f == nil {
		return nil, fmt.Errorf("exec: decode: nil fabric")
	}
	if len(data) < 28 || string(data[:4]) != codecMagic {
		return nil, fmt.Errorf("exec: decode: not a program file (bad magic)")
	}
	if version := binary.LittleEndian.Uint16(data[4:]); version != CodecVersion {
		return nil, fmt.Errorf("exec: decode: program file version %d, this build reads %d", version, CodecVersion)
	}
	coreLen := int64(binary.LittleEndian.Uint32(data[16:]))
	tailLen := int64(binary.LittleEndian.Uint32(data[20:]))
	if coreLen < 28 || coreLen&3 != 0 || tailLen < 4 || coreLen+tailLen != int64(len(data)) {
		return nil, fmt.Errorf("exec: decode: core of %d and tail of %d bytes do not frame a %d-byte file: file truncated or corrupted",
			coreLen, tailLen, len(data))
	}
	core, crcField := data[:coreLen-4], binary.LittleEndian.Uint32(data[coreLen-4:])
	if got := crc32.ChecksumIEEE(core); got != crcField {
		return nil, fmt.Errorf("exec: decode: core checksum mismatch (file %08x, computed %08x): file corrupted or truncated", crcField, got)
	}
	if gotFP := binary.LittleEndian.Uint64(data[8:]); gotFP != optFP {
		return nil, fmt.Errorf("exec: decode: options fingerprint %#x, want %#x: file was compiled under different options", gotFP, optFP)
	}
	p, err := newProgram(data[:coreLen], data[coreLen:], f, false)
	if err != nil {
		return nil, fmt.Errorf("exec: decode: %w", err)
	}
	return p, nil
}

// newProgram builds the Program a core and tail describe: it walks the
// core's header, views its tables and proves every index a replay
// follows (checkPlan). The core's framing (its length, version and
// CRC) must already be checked; the tail is only framed, never read.
// Compile's programs and decoded ones both come from here, so every
// program is trusted by the same proofs. compiled records that core
// and tail are Compile's heap buffers, whose node count is the
// fabric's own: SizeBytes then counts the tail, and only decoded bytes
// are held to maxDecodeBlocks.
func newProgram(core, tail []byte, f topology.Fabric, compiled bool) (*Program, error) {
	flags := core[6]
	if flags&^flagKnown != 0 {
		return nil, fmt.Errorf("unknown flags %#x", flags&^flagKnown)
	}
	tailLen := int64(len(tail))
	r := &creader{b: core[:len(core)-4], off: 24}
	fabFP := string(r.take(r.count(1)))
	r.pad4()
	if r.err == nil && fabFP != f.Fingerprint() {
		return nil, fmt.Errorf("program compiled for fabric %q, decoding on %q", fabFP, f.Fingerprint())
	}

	n := int(r.u32())
	numSteps := int(r.u32())
	numTransfers := int(r.u32())
	numPhases := int(r.u32())
	maxSharing := int(r.u32())
	r.u32() // numDomains: sized Compile's claim tables; a replay needs none
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
	// Tail framing, from the core's counts alone: the transfer table and
	// the cold section must fit the tail, whose bytes are not read here.
	// Each phase record (name length, steps, rearrange) takes at least 12
	// cold bytes and each payload id 4, which bounds the phase table
	// materialize sizes and the log the payloads may grow.
	coldLen := tailLen - 4 - int64(numSteps+1)*4 - int64(numTransfers)*24
	if coldLen < 0 {
		return nil, fmt.Errorf("a %d-byte tail cannot hold %d steps' %d transfers", tailLen, numSteps, numTransfers)
	}
	if int64(numPhases) > coldLen/12 {
		return nil, fmt.Errorf("%d phases do not fit a %d-byte cold section", numPhases, coldLen)
	}
	if int64(numPayload) > coldLen/4 {
		return nil, fmt.Errorf("%d payload ids do not fit a %d-byte cold section", numPayload, coldLen)
	}

	p := &Program{
		fab: f, n: n, numBlocks: n * n,
		replay:       replay,
		fullTraffic:  fullTraffic,
		maxSharing:   maxSharing,
		numPayload:   numPayload,
		core:         core,
		tail:         tail,
		heapTail:     compiled,
		numTransfers: numTransfers,
		coldPhases:   numPhases,
	}
	p.measure.Steps = int(mSteps)
	p.measure.Blocks = int(mBlocks)
	p.measure.Hops = int(mHops)
	p.measure.RearrangedBlocks = int(mRearr)

	stepHdr := asInt32s(r.take(numSteps * 20))
	if flags&flagParallelErr != 0 {
		msg := r.take(r.count(1))
		r.pad4()
		if r.err == nil {
			p.parallelErr = errors.New(string(msg))
		}
	}
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
		if h[0] < 0 || int(h[0]) >= numPhases || h[1] < 0 || h[2] < 1 || h[3] < 0 || h[4] < 0 {
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
		if logSize < 0 || logSize > p.numBlocks+numPayload {
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
func viewRecords[T ptransfer | logMove | xdesc](b []byte, n int) []T {
	if n == 0 {
		return nil
	}
	return unsafe.Slice((*T)(unsafe.Pointer(&asInt32s(b)[0])), n)
}

// checkPlan proves a replay plan safe to execute with unchecked
// gathers, whatever its tables hold, so a decoded plan cannot make a
// replay read or write out of bounds however the file was corrupted:
//
//   - every descriptor reads inside the log;
//   - every log move's descriptors expand to its payload size and read
//     only its sender's log region — the sender shard the parallel
//     replay's race-freedom rests on;
//   - every insert window lies inside one node's log region, after that
//     node's initial contents and after every earlier window there, so
//     insert windows are pairwise disjoint and every log slot is written
//     at most once per replay — the invariant that lets the delivery
//     pass read last-hop blocks after the last step;
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
	// the full matrix); cur[v] ends its last insert window so far.
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
	cur := append([]int32(nil), initEnd...)
	for i := range descs {
		d := &descs[i]
		if d.count < 1 || d.blocklen < 1 || d.count > 1 && d.stride == 0 {
			return fmt.Errorf("descriptor %d malformed", i)
		}
		first := int64(d.start)
		last := first + int64(d.count-1)*int64(d.stride)
		if min(first, last) < 0 || max(first, last)+int64(d.blocklen) > logSize {
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
	v := -1 // the previous move's insert node
	for i := range p.moves {
		m := &p.moves[i]
		if m.src < 0 || int(m.src) >= n || m.payLen < 1 || m.descOff < 0 || m.descLen < 1 ||
			int64(m.descOff)+int64(m.descLen) > int64(len(descs)) {
			return fmt.Errorf("log move %d malformed", i)
		}
		md := descs[m.descOff : m.descOff+m.descLen]
		if expandedLen(md) != int64(m.payLen) {
			return fmt.Errorf("log move %d descriptors expand to the wrong payload size", i)
		}
		lo, hi := int64(descBase[m.src]), int64(descBase[m.src+1])
		for _, d := range md {
			first := int64(d.start)
			last := first + int64(d.count-1)*int64(d.stride)
			if min(first, last) < lo || max(first, last)+int64(d.blocklen) > hi {
				return fmt.Errorf("log move %d reads outside its sender node %d's log region", i, m.src)
			}
		}
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
		case ins < int64(cur[v]):
			return fmt.Errorf("log move %d inserts at [%d,%d), overlapping an earlier insert window of node %d", i, ins, end, v)
		}
		cur[v] = int32(end)
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
