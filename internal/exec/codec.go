package exec

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"math"
	"unsafe"

	"torusx/internal/schedule"
	"torusx/internal/topology"
)

// Versioned binary codec for compiled programs — the serialization
// layer under the disk-backed program-cache tier. A program file is
// split along the executor's own hot/cold boundary into two sections,
// each sealed by its own CRC32:
//
//   - The replay core holds exactly what a replay reads — the step
//     headers, the per-node delivery counts, the sparse traffic ids and
//     the descriptor replay plan — plus the totals a decoder would
//     otherwise derive from the transfer table. Its tables are flat
//     little-endian arrays laid out field-for-field like the in-memory
//     form, so decoding on a little-endian host is a handful of
//     bounds-checked slice views over the file buffer (zero copies;
//     big-endian hosts take an element-wise fallback). DecodeProgram
//     checksums, views and proves only the core, and a decoded program
//     replays, serially or in parallel, without reading anything else.
//   - The cold tail holds what only telemetry, re-encoding and
//     Program.Schedule need — the transfer table, phase names, declared
//     block counts, route legs and the payload ids. Decoding does not
//     read it at all: Schedule() checks its CRC, validates and attaches
//     the transfer table and materializes the schedule on first use (see
//     materialize.go), which also rebuilds the link table by re-walking
//     the routes on the fabric. A replay-only process never touches it,
//     so on a mapped file its pages never become resident.
//
// The header carries the fabric fingerprint and the compile-options
// fingerprint (progcache.Fingerprint: SkipChecks + the traffic
// matrix). DecodeProgram rejects short, truncated, corrupted, version-
// or fingerprint-mismatched input with descriptive errors and proves
// every index a replay would follow (checkPlan), so a file that decodes
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
// tile [0, numPayload) in transfer order, so it bounds the log and gives
// BytesMoved (4 bytes per id) without the transfer table. Only
// transfers some later transfer forwards from have a log move; last-hop
// transfers appear only through the per-node delivery descriptors (see
// descriptor.go).
//
// This build reads and writes v6 only. A file of any other version
// (e.g. a warm disk cache written by an older build) is a decode error,
// which the disk tier turns into a miss and a delete. Derived state
// (per-step log-move element counts, the delivery layout prefix and
// reciprocal) is recomputed at decode and never serialized.

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
	errTruncated = errors.New("exec: program file truncated")
)

// hostLittle reports the host byte order; the zero-copy decode views
// require little-endian (the file format's order).
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// ptLayoutMatches reports that the in-memory ptransfer layout equals
// the file's 24-byte transfer record, making bulk unsafe views exact.
// It holds on every supported Go platform (six consecutive int32s);
// if a future field breaks it, both codec paths fall back to the
// element-wise loops and the format stays unchanged.
var ptLayoutMatches = unsafe.Sizeof(ptransfer{}) == 24 &&
	unsafe.Offsetof(ptransfer{}.src) == 0 &&
	unsafe.Offsetof(ptransfer{}.dst) == 4 &&
	unsafe.Offsetof(ptransfer{}.payOff) == 8 &&
	unsafe.Offsetof(ptransfer{}.payLen) == 12 &&
	unsafe.Offsetof(ptransfer{}.linkOff) == 16 &&
	unsafe.Offsetof(ptransfer{}.linkLen) == 20

var moveLayoutMatches = unsafe.Sizeof(logMove{}) == 20 &&
	unsafe.Offsetof(logMove{}.src) == 0 &&
	unsafe.Offsetof(logMove{}.payLen) == 4 &&
	unsafe.Offsetof(logMove{}.descOff) == 8 &&
	unsafe.Offsetof(logMove{}.descLen) == 12 &&
	unsafe.Offsetof(logMove{}.insPos) == 16

var xdescLayoutMatches = unsafe.Sizeof(xdesc{}) == 16 &&
	unsafe.Offsetof(xdesc{}.start) == 0 &&
	unsafe.Offsetof(xdesc{}.count) == 4 &&
	unsafe.Offsetof(xdesc{}.blocklen) == 8 &&
	unsafe.Offsetof(xdesc{}.stride) == 12

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

// ---- Encoding.

// appendI32s appends vals little-endian — one bulk copy on
// little-endian hosts.
func appendI32s(b []byte, vals []int32) []byte {
	if len(vals) == 0 {
		return b
	}
	if hostLittle {
		return append(b, unsafe.Slice((*byte)(unsafe.Pointer(&vals[0])), len(vals)*4)...)
	}
	for _, v := range vals {
		b = binary.LittleEndian.AppendUint32(b, uint32(v))
	}
	return b
}

func appendU32(b []byte, v uint32) []byte { return binary.LittleEndian.AppendUint32(b, v) }
func appendU64(b []byte, v uint64) []byte { return binary.LittleEndian.AppendUint64(b, v) }
func pad4(b []byte) []byte {
	for len(b)&3 != 0 {
		b = append(b, 0)
	}
	return b
}

// EncodeProgram serializes p to the versioned binary program format.
// optFP is the compile-options fingerprint the program was compiled
// under (progcache.Fingerprint); it is embedded in the header and
// re-checked by DecodeProgram, so a cached file can never be replayed
// against options it was not compiled for. Encoding a decoded program
// first materializes its schedule (the tail is rebuilt from it), so
// encode→decode→encode is byte-identical, and a decoded program whose
// tail was rejected returns that error.
func EncodeProgram(p *Program, optFP uint64) ([]byte, error) {
	if p == nil {
		return nil, fmt.Errorf("exec: encode nil program")
	}
	sc := p.Schedule()
	if sc == nil {
		if p.schedErr != nil {
			return nil, fmt.Errorf("exec: encode: %w", p.schedErr)
		}
		return nil, fmt.Errorf("exec: encode: program has no schedule")
	}
	if p.fab == nil {
		return nil, fmt.Errorf("exec: encode: program has no fabric")
	}
	n := p.n
	numSteps := len(p.steps)
	numTransfers := 0
	for si := range p.steps {
		numTransfers += len(p.steps[si].transfers)
	}
	var flags byte
	if p.replay {
		flags |= flagReplay
	}
	if p.fullTraffic {
		flags |= flagFullTraffic
	}
	if p.parallelErr != nil {
		flags |= flagParallelErr
	}
	numTraffic := 0
	if p.replay && !p.fullTraffic {
		numTraffic = len(p.trafficIDs)
	}

	// Sizing pass: validate every cold-section field against its codec
	// limit and size the variable-length parts — the phase names and the
	// route-leg stream — so the whole file is written into one buffer of
	// its exact length.
	var one [1]schedule.Seg
	segBytes := 0
	for si := range p.steps {
		for ti := range p.steps[si].transfers {
			tr := &p.steps[si].step.Transfers[ti]
			if tr.Blocks < 0 || int64(tr.Blocks) > math.MaxUint32 {
				return nil, fmt.Errorf("exec: encode: transfer block count %d out of range", tr.Blocks)
			}
			segs := routeLegs(tr, &one)
			if len(segs) > math.MaxUint8 {
				return nil, fmt.Errorf("exec: encode: transfer %v has %d route legs (max %d)", tr, len(segs), math.MaxUint8)
			}
			for _, sg := range segs {
				if sg.Dim < 0 || sg.Dim > math.MaxUint8 || sg.Hops < 0 || sg.Hops > math.MaxUint16 {
					return nil, fmt.Errorf("exec: encode: route leg %+v exceeds codec limits", sg)
				}
			}
			segBytes += 1 + 4*len(segs)
		}
	}
	phaseBytes := 0
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		if ph.Rearrange < 0 || int64(ph.Rearrange) > math.MaxUint32 {
			return nil, fmt.Errorf("exec: encode: phase %q rearrange %d out of range", ph.Name, ph.Rearrange)
		}
		phaseBytes += 4 + padded4(len(ph.Name)) + 8
	}

	fp := p.fab.Fingerprint()
	var errMsg string
	if p.parallelErr != nil {
		errMsg = p.parallelErr.Error()
	}
	coreLen := 24 + 4 + padded4(len(fp)) + 8*4 + 4*8 + numSteps*20
	if p.parallelErr != nil {
		coreLen += 4 + padded4(len(errMsg))
	}
	if p.replay {
		coreLen += 4*n + 4*numTraffic + 3*4 + (numSteps+1)*4 + len(p.moves)*20 +
			(n+1)*4 + len(p.descBacking)*16 + (n+1)*4
	}
	coreLen += 4
	tailLen := (numSteps+1)*4 + numTransfers*24 +
		4*len(p.payloadBacking) + 4*numTransfers + padded4((numSteps+7)/8) + phaseBytes + padded4(segBytes) + 4
	if int64(coreLen)+int64(tailLen) > math.MaxUint32 {
		return nil, fmt.Errorf("exec: encode: %d-byte program exceeds the codec's size limit", int64(coreLen)+int64(tailLen))
	}

	b := make([]byte, 0, coreLen+tailLen)
	b = append(b, codecMagic...)
	b = binary.LittleEndian.AppendUint16(b, CodecVersion)
	b = append(b, flags, 0)
	b = appendU64(b, optFP)
	b = appendU32(b, uint32(coreLen))
	b = appendU32(b, uint32(tailLen))
	b = appendU32(b, uint32(len(fp)))
	b = append(b, fp...)
	b = pad4(b)
	for _, v := range []int{n, numSteps, numTransfers,
		len(sc.Phases), p.maxSharing, p.numDomains, numTraffic, p.numPayload} {
		if v < 0 || int64(v) > math.MaxUint32 {
			return nil, fmt.Errorf("exec: encode: scalar %d out of range", v)
		}
		b = appendU32(b, uint32(v))
	}
	b = appendU64(b, uint64(p.measure.Steps))
	b = appendU64(b, uint64(p.measure.Blocks))
	b = appendU64(b, uint64(p.measure.Hops))
	b = appendU64(b, uint64(p.measure.RearrangedBlocks))
	for si := range p.steps {
		ps := &p.steps[si]
		b = appendU32(b, uint32(ps.phaseIndex))
		b = appendU32(b, uint32(ps.stepIndex))
		b = appendU32(b, uint32(ps.sharing))
		b = appendU32(b, uint32(ps.maxBlocks))
		b = appendU32(b, uint32(ps.maxHops))
	}
	if p.parallelErr != nil {
		b = appendU32(b, uint32(len(errMsg)))
		b = append(b, errMsg...)
		b = pad4(b)
	}
	if p.replay {
		b = appendI32s(b, p.perDest)
		if !p.fullTraffic {
			b = appendI32s(b, p.trafficIDs)
		}
		b = appendU32(b, uint32(len(p.descBacking)))
		b = appendU32(b, uint32(len(p.moves)))
		b = appendU32(b, uint32(p.descBase[n]))
		b = appendI32s(b, p.moveOff)
		if hostLittle && moveLayoutMatches && len(p.moves) > 0 {
			b = append(b, unsafe.Slice((*byte)(unsafe.Pointer(&p.moves[0])), len(p.moves)*20)...)
		} else {
			for i := range p.moves {
				m := &p.moves[i]
				for _, v := range [5]int32{m.src, m.payLen, m.descOff, m.descLen, m.insPos} {
					b = appendU32(b, uint32(v))
				}
			}
		}
		b = appendI32s(b, p.descBase)
		if hostLittle && xdescLayoutMatches && len(p.descBacking) > 0 {
			b = append(b, unsafe.Slice((*byte)(unsafe.Pointer(&p.descBacking[0])), len(p.descBacking)*16)...)
		} else {
			for i := range p.descBacking {
				d := &p.descBacking[i]
				for _, v := range [4]int32{d.start, d.count, d.blocklen, d.stride} {
					b = appendU32(b, uint32(v))
				}
			}
		}
		b = appendI32s(b, p.deliverOff)
	}
	b = appendU32(b, crc32.ChecksumIEEE(b))
	if len(b) != coreLen {
		return nil, fmt.Errorf("exec: encode: wrote a %d-byte core, sized %d", len(b), coreLen)
	}

	off := 0
	for si := range p.steps {
		b = appendU32(b, uint32(off))
		off += len(p.steps[si].transfers)
	}
	b = appendU32(b, uint32(off))
	if hostLittle && ptLayoutMatches {
		for si := range p.steps {
			ts := p.steps[si].transfers
			if len(ts) > 0 {
				b = append(b, unsafe.Slice((*byte)(unsafe.Pointer(&ts[0])), len(ts)*24)...)
			}
		}
	} else {
		for si := range p.steps {
			for ti := range p.steps[si].transfers {
				pt := &p.steps[si].transfers[ti]
				for _, v := range [6]int32{pt.src, pt.dst, pt.payOff, pt.payLen, pt.linkOff, pt.linkLen} {
					b = appendU32(b, uint32(v))
				}
			}
		}
	}
	b = appendI32s(b, p.payloadBacking)
	for si := range p.steps {
		for ti := range p.steps[si].transfers {
			b = appendU32(b, uint32(p.steps[si].step.Transfers[ti].Blocks))
		}
	}
	for lo := 0; lo < numSteps; lo += 8 {
		var bits byte
		for si := lo; si < min(lo+8, numSteps); si++ {
			if p.steps[si].step.Shared {
				bits |= 1 << uint(si-lo)
			}
		}
		b = append(b, bits)
	}
	b = pad4(b)
	for pi := range sc.Phases {
		ph := &sc.Phases[pi]
		b = appendU32(b, uint32(len(ph.Name)))
		b = append(b, ph.Name...)
		b = pad4(b)
		b = appendU32(b, uint32(len(ph.Steps)))
		b = appendU32(b, uint32(ph.Rearrange))
	}
	for si := range p.steps {
		for ti := range p.steps[si].transfers {
			segs := routeLegs(&p.steps[si].step.Transfers[ti], &one)
			b = append(b, byte(len(segs)))
			for _, sg := range segs {
				dir := byte(0)
				if sg.Dir == topology.Neg {
					dir = 1
				}
				b = append(b, byte(sg.Dim), dir)
				b = binary.LittleEndian.AppendUint16(b, uint16(sg.Hops))
			}
		}
	}
	b = pad4(b)
	b = appendU32(b, crc32.ChecksumIEEE(b[coreLen:]))
	if len(b) != coreLen+tailLen {
		return nil, fmt.Errorf("exec: encode: wrote a %d-byte tail, sized %d", len(b)-coreLen, tailLen)
	}
	return b, nil
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
// produced by EncodeProgram). f must be the fabric the program was
// compiled on and optFP the compile-options fingerprint used at
// encode time; both are checked against the embedded header so a
// stale or misfiled cache artifact is rejected, not replayed. The
// decoded program replays immediately; its schedule (needed only for
// telemetry and re-encoding) materializes lazily from the cold tail on
// first Schedule() call.
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
	flags := data[6]
	if flags&^flagKnown != 0 {
		return nil, fmt.Errorf("exec: decode: unknown flags %#x", flags&^flagKnown)
	}
	r := &creader{b: core, off: 8}
	if gotFP := r.u64(); gotFP != optFP {
		return nil, fmt.Errorf("exec: decode: options fingerprint %#x, want %#x: file was compiled under different options", gotFP, optFP)
	}
	r.take(8) // coreLen, tailLen
	fabFP := string(r.take(r.count(1)))
	r.pad4()
	if r.err == nil && fabFP != f.Fingerprint() {
		return nil, fmt.Errorf("exec: decode: program compiled for fabric %q, decoding on %q", fabFP, f.Fingerprint())
	}

	n := int(r.u32())
	numSteps := int(r.u32())
	numTransfers := int(r.u32())
	numPhases := int(r.u32())
	maxSharing := int(r.u32())
	numDomains := int(r.u32())
	numTraffic := int(r.u32())
	numPayload := int(r.u32())
	mSteps, mBlocks := r.u64(), r.u64()
	mHops, mRearr := r.u64(), r.u64()
	if r.err != nil {
		return nil, r.err
	}
	if n <= 0 || int64(n)*int64(n) > maxDecodeBlocks || n != f.Nodes() {
		return nil, fmt.Errorf("exec: decode: node count %d, fabric %s has %d", n, f, f.Nodes())
	}
	replay := flags&flagReplay != 0
	fullTraffic := flags&flagFullTraffic != 0
	if fullTraffic && !replay || numTraffic != 0 && (!replay || fullTraffic) || numPayload != 0 && !replay {
		return nil, fmt.Errorf("exec: decode: inconsistent traffic flags")
	}
	// Tail framing, from the core's counts alone: the transfer table and
	// the cold section must fit the tail, whose bytes are not read here.
	// Each phase record (name length, steps, rearrange) takes at least 12
	// cold bytes and each payload id 4, which bounds the phase table
	// materialize sizes and the log the payloads may grow.
	coldLen := tailLen - 4 - int64(numSteps+1)*4 - int64(numTransfers)*24
	if coldLen < 0 {
		return nil, fmt.Errorf("exec: decode: a %d-byte tail cannot hold %d steps' %d transfers", tailLen, numSteps, numTransfers)
	}
	if int64(numPhases) > coldLen/12 {
		return nil, fmt.Errorf("exec: decode: %d phases do not fit a %d-byte cold section", numPhases, coldLen)
	}
	if int64(numPayload) > coldLen/4 {
		return nil, fmt.Errorf("exec: decode: %d payload ids do not fit a %d-byte cold section", numPayload, coldLen)
	}

	p := &Program{
		fab: f, n: n, numBlocks: n * n,
		replay:       replay,
		fullTraffic:  fullTraffic,
		maxSharing:   maxSharing,
		numDomains:   numDomains,
		numPayload:   numPayload,
		tail:         data[coreLen:],
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
	if r.off != len(core) {
		return nil, fmt.Errorf("exec: decode: %d trailing bytes in the core", len(core)-r.off)
	}

	// Step table: validate every header field the replay and the
	// telemetry post-pass index with.
	p.steps = make([]pstep, numSteps)
	for si := 0; si < numSteps; si++ {
		h := stepHdr[si*5:]
		if h[0] < 0 || int(h[0]) >= numPhases || h[1] < 0 || h[2] < 1 || h[3] < 0 || h[4] < 0 {
			return nil, fmt.Errorf("exec: decode: step %d header invalid", si)
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
					return nil, fmt.Errorf("exec: decode: node %d delivery count %d, traffic addresses %d blocks to it", v, perDest[v], n)
				}
			}
		} else {
			addressed := make([]int32, n)
			for _, id := range trafficIDs {
				if id < 0 || int(id) >= p.numBlocks {
					return nil, fmt.Errorf("exec: decode: traffic id %d out of range", id)
				}
				addressed[int(id)%n]++
			}
			for v := 0; v < n; v++ {
				if perDest[v] != addressed[v] {
					return nil, fmt.Errorf("exec: decode: node %d delivery count %d, traffic addresses %d blocks to it", v, perDest[v], addressed[v])
				}
			}
			p.trafficIDs = trafficIDs
		}
		p.perDest = perDest
		// Delivery layout prefix and reciprocal — derived, never
		// serialized.
		p.deriveDelivery()
		if logSize < 0 || logSize > p.numBlocks+numPayload {
			return nil, fmt.Errorf("exec: decode: implausible log size %d", logSize)
		}
		if int(descBase[n]) != logSize {
			return nil, fmt.Errorf("exec: decode: log region prefix does not cover the log")
		}
		p.moves = viewLogMoves(movesRaw, numMoves)
		p.moveOff = moveOff
		p.descBacking = viewXdescs(descRaw, numDesc)
		p.descBase = descBase
		p.deliverOff = deliverOff
		if err := p.checkPlan(); err != nil {
			return nil, fmt.Errorf("exec: decode: %w", err)
		}
		p.deriveReplayStats()
	}
	return p, nil
}

// viewTransfers views b as n transfer records: a bulk view when the
// in-memory layout is the file layout, element-wise otherwise.
func viewTransfers(b []byte, n int) []ptransfer {
	if n == 0 {
		return nil
	}
	if hostLittle && ptLayoutMatches && aligned4(b) {
		return unsafe.Slice((*ptransfer)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]ptransfer, n)
	for i := range out {
		rec := b[i*24:]
		out[i] = ptransfer{
			src:     int32(binary.LittleEndian.Uint32(rec[0:])),
			dst:     int32(binary.LittleEndian.Uint32(rec[4:])),
			payOff:  int32(binary.LittleEndian.Uint32(rec[8:])),
			payLen:  int32(binary.LittleEndian.Uint32(rec[12:])),
			linkOff: int32(binary.LittleEndian.Uint32(rec[16:])),
			linkLen: int32(binary.LittleEndian.Uint32(rec[20:])),
		}
	}
	return out
}

func viewLogMoves(b []byte, n int) []logMove {
	if n == 0 {
		return nil
	}
	if hostLittle && moveLayoutMatches && aligned4(b) {
		return unsafe.Slice((*logMove)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]logMove, n)
	for i := range out {
		rec := b[i*20:]
		out[i] = logMove{
			src:     int32(binary.LittleEndian.Uint32(rec[0:])),
			payLen:  int32(binary.LittleEndian.Uint32(rec[4:])),
			descOff: int32(binary.LittleEndian.Uint32(rec[8:])),
			descLen: int32(binary.LittleEndian.Uint32(rec[12:])),
			insPos:  int32(binary.LittleEndian.Uint32(rec[16:])),
		}
	}
	return out
}

func viewXdescs(b []byte, n int) []xdesc {
	if n == 0 {
		return nil
	}
	if hostLittle && xdescLayoutMatches && aligned4(b) {
		return unsafe.Slice((*xdesc)(unsafe.Pointer(&b[0])), n)
	}
	out := make([]xdesc, n)
	for i := range out {
		rec := b[i*16:]
		out[i] = xdesc{
			start:    int32(binary.LittleEndian.Uint32(rec[0:])),
			count:    int32(binary.LittleEndian.Uint32(rec[4:])),
			blocklen: int32(binary.LittleEndian.Uint32(rec[8:])),
			stride:   int32(binary.LittleEndian.Uint32(rec[12:])),
		}
	}
	return out
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
