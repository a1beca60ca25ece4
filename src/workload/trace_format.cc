#include "workload/trace_format.hh"

#include <algorithm>
#include <cstring>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "vm/page_table.hh"

namespace sipt::workload
{

namespace
{

/** File identification bytes; never reused across versions with
 *  incompatible header layouts. */
constexpr char traceMagic[8] = {'S', 'I', 'P', 'T',
                                'T', 'R', 'C', '\0'};

/** Byte offset of the refCount/recordBytes/recordDigest triple
 *  that finish() patches in place. */
constexpr std::uint64_t patchOffset = 24;

/** Record flag bits. */
constexpr std::uint8_t flagStore = 1u << 0;
constexpr std::uint8_t flagDependsOnPrev = 1u << 1;

/** ZigZag: map signed deltas onto small unsigned varints. */
constexpr std::uint64_t
zigzagEncode(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

constexpr std::int64_t
zigzagDecode(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Difference of two addresses as a signed delta. Addresses are
 *  unsigned; the subtraction wraps, and zigzag keeps small
 *  forward/backward moves small on the wire. */
constexpr std::int64_t
addrDelta(Addr now, Addr prev)
{
    return static_cast<std::int64_t>(now - prev);
}

void
putFixed32(std::string &out, std::uint32_t v)
{
    for (unsigned i = 0; i < 4; ++i)
        out.push_back(
            static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putFixed64(std::string &out, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        out.push_back(
            static_cast<char>((v >> (8 * i)) & 0xff));
}

void
putVarintTo(std::string &out, std::uint64_t v)
{
    while (v >= 0x80) {
        out.push_back(static_cast<char>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    out.push_back(static_cast<char>(v));
}

/** Checked fixed-width reads; false = EOF/short read. */
bool
readExact(std::istream &in, char *buf, std::size_t n)
{
    in.read(buf, static_cast<std::streamsize>(n));
    return in.gcount() == static_cast<std::streamsize>(n);
}

bool
readFixed32(std::istream &in, std::uint32_t &v)
{
    char buf[4];
    if (!readExact(in, buf, sizeof(buf)))
        return false;
    v = 0;
    for (unsigned i = 0; i < 4; ++i)
        v |= static_cast<std::uint32_t>(
                 static_cast<std::uint8_t>(buf[i]))
             << (8 * i);
    return true;
}

bool
readFixed64(std::istream &in, std::uint64_t &v)
{
    char buf[8];
    if (!readExact(in, buf, sizeof(buf)))
        return false;
    v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(
                 static_cast<std::uint8_t>(buf[i]))
             << (8 * i);
    return true;
}

bool
readVarintFrom(std::istream &in, std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const int c = in.get();
        if (c < 0)
            return false;
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return true;
    }
    return false; // over-long varint
}

/** Smallest encoded sizes, for bounding counts by file size. */
constexpr std::uint64_t regionBytes = 16;
constexpr std::uint64_t minMappingBytes = 3;

/** Mix @p v into the running fnv1a64 hash @p h. */
std::uint64_t
mixFixed64(std::uint64_t h, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        h = fnv1a64Step(h, static_cast<std::uint8_t>(v >> (8 * i)));
    return h;
}

/** "" when @p regions and @p mappings form a layout a page table
 *  can hold (see the file comment), else what is wrong. */
std::string
checkLayout(std::vector<TraceRegion> regions,
            const std::vector<TraceMapping> &mappings)
{
    std::sort(regions.begin(), regions.end(),
              [](const TraceRegion &a, const TraceRegion &b) {
                  return a.base < b.base;
              });
    for (std::size_t i = 0; i < regions.size(); ++i) {
        const TraceRegion &r = regions[i];
        if (r.bytes == 0 || pageOffset(r.base) != 0 ||
            pageOffset(r.bytes) != 0 || r.base + r.bytes < r.base)
            return "bad region (zero, unaligned or wrapping)";
        if (i > 0 && r.base < regions[i - 1].base + regions[i - 1].bytes)
            return "overlapping regions";
    }
    std::size_t region = 0;
    for (std::size_t i = 0; i < mappings.size(); ++i) {
        const TraceMapping &m = mappings[i];
        const Addr end = m.vaddr + (m.huge ? hugePageSize : pageSize);
        if (i > 0 && m.vaddr <= mappings[i - 1].vaddr)
            return "mappings not sorted by VPN or duplicated";
        if (m.huge && ((m.vaddr & mask(hugePageShift)) != 0 ||
                       (m.pfn & mask(hugePageShift - pageShift)) != 0))
            return "unaligned huge mapping";
        if (!m.huge && i > 0 && mappings[i - 1].huge &&
            hugePageNumber(m.vaddr) ==
                hugePageNumber(mappings[i - 1].vaddr))
            return "4 KiB mapping inside a huge mapping";
        while (region < regions.size() &&
               regions[region].base + regions[region].bytes <= m.vaddr)
            ++region;
        if (region == regions.size() || m.vaddr < regions[region].base ||
            end > regions[region].base + regions[region].bytes)
            return "mapping at va " + std::to_string(m.vaddr) +
                   " outside every region";
    }
    // The chunk span bounds the 4 KiB span too (512 pages a chunk).
    constexpr std::uint64_t chunk_cap =
        vm::PageTable::maxSpanPages / pagesPerHugePage;
    if (!mappings.empty() &&
        hugePageNumber(mappings.back().vaddr) -
                hugePageNumber(mappings.front().vaddr) >=
            chunk_cap)
        return "mappings span more than the page table's " +
               std::to_string(vm::PageTable::maxSpanPages) +
               "-page cap";
    return "";
}

/** The header's layoutDigest: stable fnv1a64 over the decoded app
 *  name, regions and mappings. */
std::uint64_t
layoutDigest(const std::string &app,
             const std::vector<TraceRegion> &regions,
             const std::vector<TraceMapping> &mappings)
{
    std::uint64_t h = fnv1a64(app);
    h = mixFixed64(h, regions.size());
    for (const TraceRegion &r : regions)
        h = mixFixed64(mixFixed64(h, r.base), r.bytes);
    h = mixFixed64(h, mappings.size());
    for (const TraceMapping &m : mappings) {
        h = mixFixed64(mixFixed64(h, m.vaddr), m.pfn);
        h = fnv1a64Step(h, m.huge ? 1 : 0);
    }
    return h;
}

} // namespace

TraceWriter::TraceWriter(const std::string &path,
                         const std::string &app,
                         std::uint64_t seed,
                         const std::vector<TraceRegion> &regions,
                         const std::vector<TraceMapping> &mappings)
    : out_(path, std::ios::binary | std::ios::trunc), path_(path)
{
    if (!out_)
        fatal("trace: cannot create '", path, "'");

    std::string head;
    head.append(traceMagic, sizeof(traceMagic));
    putFixed32(head, traceFormatVersion);
    putFixed32(head, 0); // reserved
    putFixed64(head, seed);
    putFixed64(head, 0); // refCount, patched by finish()
    putFixed64(head, 0); // recordBytes, patched
    putFixed64(head, 0); // recordDigest, patched
    putFixed64(head, layoutDigest(app, regions, mappings));
    putFixed32(head, static_cast<std::uint32_t>(app.size()));
    head.append(app);

    putFixed32(head, static_cast<std::uint32_t>(regions.size()));
    for (const auto &r : regions) {
        putFixed64(head, r.base);
        putFixed64(head, r.bytes);
    }

    putFixed64(head, mappings.size());
    Vpn prev_vpn = 0;
    Pfn prev_pfn = 0;
    for (const auto &m : mappings) {
        const Vpn vpn = pageNumber(m.vaddr);
        if (vpn < prev_vpn)
            fatal("trace: mappings not sorted by VPN");
        head.push_back(m.huge ? 1 : 0);
        putVarintTo(head, vpn - prev_vpn);
        putVarintTo(head, zigzagEncode(static_cast<std::int64_t>(
                              m.pfn - prev_pfn)));
        prev_vpn = vpn;
        prev_pfn = m.pfn;
    }

    out_.write(head.data(),
               static_cast<std::streamsize>(head.size()));
    if (!out_)
        fatal("trace: write error on '", path, "'");
}

TraceWriter::~TraceWriter()
{
    finish();
}

void
TraceWriter::putByte(std::uint8_t b)
{
    buffer_.push_back(static_cast<char>(b));
    digest_ = fnv1a64Step(digest_, b);
    ++recordBytes_;
}

void
TraceWriter::putVarint(std::uint64_t v)
{
    while (v >= 0x80) {
        putByte(static_cast<std::uint8_t>((v & 0x7f) | 0x80));
        v >>= 7;
    }
    putByte(static_cast<std::uint8_t>(v));
}

void
TraceWriter::putSigned(std::int64_t v)
{
    putVarint(zigzagEncode(v));
}

void
TraceWriter::flushBuffer()
{
    if (buffer_.empty())
        return;
    out_.write(buffer_.data(),
               static_cast<std::streamsize>(buffer_.size()));
    buffer_.clear();
}

void
TraceWriter::append(const MemRef &ref)
{
    SIPT_ASSERT(!finished_, "append after finish");
    std::uint8_t flags = 0;
    if (ref.op == MemOp::Store)
        flags |= flagStore;
    if (ref.dependsOnPrev)
        flags |= flagDependsOnPrev;
    putByte(flags);
    putSigned(addrDelta(ref.pc, prevPc_));
    putSigned(addrDelta(ref.vaddr, prevVaddr_));
    putVarint(ref.nonMemBefore);
    if (ref.dependsOnPrev) {
        putByte(ref.chainId);
        putByte(ref.chainTail);
    }
    prevPc_ = ref.pc;
    prevVaddr_ = ref.vaddr;
    ++refCount_;
    if (buffer_.size() >= 64 * 1024)
        flushBuffer();
}

void
TraceWriter::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flushBuffer();
    out_.seekp(static_cast<std::streamoff>(patchOffset));
    std::string patch;
    putFixed64(patch, refCount_);
    putFixed64(patch, recordBytes_);
    putFixed64(patch, digest_);
    out_.write(patch.data(),
               static_cast<std::streamsize>(patch.size()));
    out_.flush();
    if (!out_)
        fatal("trace: write error on '", path_, "'");
    out_.close();
}

std::string
TraceReader::open(const std::string &path)
{
    in_.open(path, std::ios::binary | std::ios::ate);
    if (!in_)
        return "cannot open '" + path + "'";
    const auto file_bytes = static_cast<std::uint64_t>(in_.tellg());
    in_.seekg(0);
    // Bytes after the read position: every count read from the file
    // is bounded by it before a table is sized from that count.
    auto left = [&] {
        return file_bytes - static_cast<std::uint64_t>(in_.tellg());
    };

    char magic[8];
    if (!readExact(in_, magic, sizeof(magic)))
        return "truncated header (magic)";
    if (std::memcmp(magic, traceMagic, sizeof(magic)) != 0)
        return "bad magic (not a SIPT trace)";

    std::uint32_t reserved = 0;
    std::uint32_t app_len = 0;
    if (!readFixed32(in_, info_.version) ||
        !readFixed32(in_, reserved))
        return "truncated header (version)";
    if (info_.version != traceFormatVersion) {
        return "unsupported trace version " +
               std::to_string(info_.version) + " (expected " +
               std::to_string(traceFormatVersion) + ")";
    }
    if (!readFixed64(in_, info_.seed) ||
        !readFixed64(in_, info_.refCount) ||
        !readFixed64(in_, info_.recordBytes) ||
        !readFixed64(in_, info_.recordDigest) ||
        !readFixed64(in_, info_.layoutDigest) ||
        !readFixed32(in_, app_len))
        return "truncated header (counts)";
    if (app_len > left())
        return "truncated header (app name)";
    info_.app.resize(app_len);
    if (app_len &&
        !readExact(in_, info_.app.data(), app_len))
        return "truncated header (app name)";

    std::uint32_t region_count = 0;
    if (!readFixed32(in_, region_count))
        return "truncated region table";
    if (region_count > left() / regionBytes) {
        return "truncated region table (" +
               std::to_string(region_count) + " regions in " +
               std::to_string(left()) + " bytes)";
    }
    regions_.resize(region_count);
    for (auto &r : regions_) {
        if (!readFixed64(in_, r.base) ||
            !readFixed64(in_, r.bytes))
            return "truncated region table";
    }
    info_.regionCount = region_count;

    std::uint64_t map_count = 0;
    if (!readFixed64(in_, map_count))
        return "truncated mapping table";
    if (map_count > left() / minMappingBytes) {
        return "truncated mapping table (" +
               std::to_string(map_count) + " mappings in " +
               std::to_string(left()) + " bytes)";
    }
    mappings_.resize(map_count);
    Vpn vpn = 0;
    Pfn pfn = 0;
    for (auto &m : mappings_) {
        const int huge = in_.get();
        std::uint64_t vpn_delta = 0;
        std::uint64_t pfn_zz = 0;
        if (huge < 0 || !readVarintFrom(in_, vpn_delta) ||
            !readVarintFrom(in_, pfn_zz))
            return "truncated mapping table";
        vpn += vpn_delta;
        pfn += static_cast<Pfn>(zigzagDecode(pfn_zz));
        m.vaddr = pageBase(vpn);
        m.pfn = pfn;
        m.huge = huge != 0;
    }
    info_.mapCount = map_count;

    if (layoutDigest(info_.app, regions_, mappings_) !=
        info_.layoutDigest)
        return "layout digest mismatch (corrupt or edited trace)";
    const std::string bad_layout = checkLayout(regions_, mappings_);
    if (!bad_layout.empty())
        return "bad layout: " + bad_layout;

    recordsOffset_ =
        static_cast<std::uint64_t>(in_.tellg());
    rewind();
    return "";
}

void
TraceReader::rewind()
{
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(recordsOffset_));
    decoded_ = 0;
    digest_ = fnv1a64Init;
    bytes_ = 0;
    prevPc_ = 0;
    prevVaddr_ = 0;
    error_.clear();
}

int
TraceReader::getByte()
{
    const int c = in_.get();
    if (c >= 0) {
        digest_ =
            fnv1a64Step(digest_, static_cast<std::uint8_t>(c));
        ++bytes_;
    }
    return c;
}

bool
TraceReader::readVarint(std::uint64_t &v)
{
    v = 0;
    for (unsigned shift = 0; shift < 64; shift += 7) {
        const int c = getByte();
        if (c < 0)
            return false;
        v |= static_cast<std::uint64_t>(c & 0x7f) << shift;
        if ((c & 0x80) == 0)
            return true;
    }
    return false;
}

bool
TraceReader::readSigned(std::int64_t &v)
{
    std::uint64_t raw = 0;
    if (!readVarint(raw))
        return false;
    v = zigzagDecode(raw);
    return true;
}

bool
TraceReader::next(MemRef &ref)
{
    if (!error_.empty() || decoded_ >= info_.refCount)
        return false;

    const int flags = getByte();
    std::int64_t pc_delta = 0;
    std::int64_t va_delta = 0;
    std::uint64_t non_mem = 0;
    if (flags < 0 || !readSigned(pc_delta) ||
        !readSigned(va_delta) || !readVarint(non_mem)) {
        error_ = "truncated record stream (record " +
                 std::to_string(decoded_) + " of " +
                 std::to_string(info_.refCount) + ")";
        return false;
    }
    ref = MemRef{};
    ref.op = (flags & flagStore) ? MemOp::Store : MemOp::Load;
    ref.dependsOnPrev = (flags & flagDependsOnPrev) != 0;
    ref.pc = prevPc_ + static_cast<Addr>(pc_delta);
    ref.vaddr = prevVaddr_ + static_cast<Addr>(va_delta);
    ref.nonMemBefore = static_cast<std::uint32_t>(non_mem);
    if (ref.dependsOnPrev) {
        const int chain_id = getByte();
        const int chain_tail = getByte();
        if (chain_id < 0 || chain_tail < 0) {
            error_ = "truncated record stream (chain fields)";
            return false;
        }
        ref.chainId = static_cast<std::uint8_t>(chain_id);
        ref.chainTail = static_cast<std::uint8_t>(chain_tail);
    }
    prevPc_ = ref.pc;
    prevVaddr_ = ref.vaddr;
    ++decoded_;
    return true;
}

std::optional<TraceInfo>
readTraceInfo(const std::string &path, std::string &error)
{
    TraceReader reader;
    error = reader.open(path);
    if (!error.empty())
        return std::nullopt;
    return reader.info();
}

bool
verifyTrace(const std::string &path, std::string &error)
{
    TraceReader reader;
    error = reader.open(path);
    if (!error.empty())
        return false;
    MemRef ref;
    while (reader.next(ref)) {
    }
    if (!reader.error().empty()) {
        error = reader.error();
        return false;
    }
    const TraceInfo &info = reader.info();
    if (reader.decoded() != info.refCount) {
        error = "record count mismatch";
        return false;
    }
    if (reader.streamBytes() != info.recordBytes) {
        error = "record stream is " +
                std::to_string(reader.streamBytes()) +
                " bytes, header says " +
                std::to_string(info.recordBytes);
        return false;
    }
    if (reader.streamDigest() != info.recordDigest) {
        error = "record stream digest mismatch (corrupt or "
                "edited trace)";
        return false;
    }
    return true;
}

std::uint64_t
traceContentHash(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return 0;
    std::uint64_t h = fnv1a64Init;
    char buf[64 * 1024];
    for (;;) {
        in.read(buf, sizeof(buf));
        const std::streamsize got = in.gcount();
        if (got <= 0)
            break;
        for (std::streamsize i = 0; i < got; ++i) {
            h = fnv1a64Step(
                h, static_cast<std::uint8_t>(buf[i]));
        }
        if (got < static_cast<std::streamsize>(sizeof(buf)))
            break;
    }
    return h;
}

} // namespace sipt::workload
