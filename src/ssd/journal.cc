#include "ssd/journal.hh"

#include <cstring>

#include "util/byte_cursor.hh"

namespace leaftl
{

namespace
{

/**
 * Encode one record onto @a log: one resize, then the header and the
 * payload through one cursor. The checksum covers the header fields
 * and the payload, with the checksum field itself zeroed -- computed
 * once the payload is in place.
 */
size_t
appendRecord(std::vector<uint8_t> &log, JournalRecord::Type type,
             uint64_t seq, uint32_t coverage,
             const std::vector<std::pair<Lpa, Ppa>> *run, Lpa trim_lpa)
{
    const size_t start = log.size();
    const uint32_t payload_len =
        run ? static_cast<uint32_t>(run->size() * 2 * sizeof(uint32_t))
            : static_cast<uint32_t>(sizeof(Lpa));
    log.resize(start + MappingJournal::kHeaderBytes + payload_len);
    uint8_t *const rec = log.data() + start;
    ByteWriter w(rec);
    w.put<uint8_t>(static_cast<uint8_t>(type));
    w.put<uint64_t>(seq);
    w.put<uint32_t>(coverage);
    w.put<uint32_t>(payload_len);
    const size_t cksum_at = static_cast<size_t>(w.pos() - rec);
    w.put<uint64_t>(0); // checksum placeholder
    if (run) {
        for (const auto &[lpa, ppa] : *run) {
            w.put<uint32_t>(lpa);
            w.put<uint32_t>(ppa);
        }
    } else {
        w.put<uint32_t>(trim_lpa);
    }
    uint64_t h = fnv1a64(rec, cksum_at);
    h = fnv1a64(rec + MappingJournal::kHeaderBytes, payload_len, h);
    ByteWriter(rec + cksum_at).put<uint64_t>(h);
    return log.size() - start;
}

} // namespace

size_t
MappingJournal::appendLearn(uint64_t seq, uint32_t coverage,
                            const std::vector<std::pair<Lpa, Ppa>> &run)
{
    last_record_at_ = log_.size();
    records_++;
    return appendRecord(log_, JournalRecord::Type::Learn, seq, coverage,
                        &run, kInvalidLpa);
}

size_t
MappingJournal::appendTrim(uint64_t seq, uint32_t coverage, Lpa lpa)
{
    last_record_at_ = log_.size();
    records_++;
    return appendRecord(log_, JournalRecord::Type::Trim, seq, coverage,
                        nullptr, lpa);
}

void
MappingJournal::tearLastRecord(uint32_t keep_pct)
{
    if (records_ == 0)
        return;
    const size_t len = log_.size() - last_record_at_;
    const size_t keep = len * (keep_pct % 100) / 100;
    log_.resize(last_record_at_ + keep);
    records_--;
}

void
MappingJournal::truncateTo(size_t bytes)
{
    if (bytes < log_.size()) {
        log_.resize(bytes);
        // Record count is only advisory after a truncation; recount
        // lazily via a reader if ever needed. Keep it conservative.
        if (last_record_at_ >= bytes)
            last_record_at_ = bytes;
    }
}

void
MappingJournal::clear()
{
    log_.clear();
    records_ = 0;
    last_record_at_ = 0;
}

bool
JournalReader::next(JournalRecord &rec)
{
    if (corrupt_ || at_ >= log_.size())
        return false;
    ByteReader r(log_, at_);
    uint8_t type = 0;
    uint64_t seq = 0, cksum = 0;
    uint32_t coverage = 0, payload_len = 0;
    if (!r.read(type) || !r.read(seq) || !r.read(coverage) ||
        !r.read(payload_len) || !r.read(cksum)) {
        corrupt_ = true; // torn header
        return false;
    }
    const uint8_t *payload = r.take(payload_len);
    if (!payload) {
        corrupt_ = true; // torn payload
        return false;
    }
    // Recompute the checksum with the checksum field zeroed.
    const uint8_t *const start = log_.data() + at_;
    const size_t cksum_at = MappingJournal::kHeaderBytes - sizeof(uint64_t);
    uint64_t h = fnv1a64(start, cksum_at);
    h = fnv1a64(payload, payload_len, h);
    if (h != cksum) {
        corrupt_ = true;
        return false;
    }
    if (have_seq_ && seq <= last_seq_) {
        corrupt_ = true; // sequence must be strictly monotone
        return false;
    }
    rec.seq = seq;
    rec.coverage = coverage;
    rec.mappings.clear();
    rec.trim_lpa = kInvalidLpa;
    if (type == static_cast<uint8_t>(JournalRecord::Type::Learn)) {
        if (payload_len % (2 * sizeof(uint32_t)) != 0) {
            corrupt_ = true;
            return false;
        }
        rec.type = JournalRecord::Type::Learn;
        rec.mappings.reserve(payload_len / (2 * sizeof(uint32_t)));
        // take() bounded the whole payload: decode it in one pass.
        for (const uint8_t *p = payload; p != payload + payload_len;
             p += 2 * sizeof(uint32_t)) {
            uint32_t lpa = 0, ppa = 0;
            std::memcpy(&lpa, p, sizeof(lpa));
            std::memcpy(&ppa, p + sizeof(lpa), sizeof(ppa));
            if (!rec.mappings.empty() && lpa <= rec.mappings.back().first) {
                corrupt_ = true; // learn runs are strictly increasing
                return false;
            }
            rec.mappings.emplace_back(lpa, ppa);
        }
    } else if (type == static_cast<uint8_t>(JournalRecord::Type::Trim)) {
        if (payload_len != sizeof(Lpa)) {
            corrupt_ = true;
            return false;
        }
        rec.type = JournalRecord::Type::Trim;
        std::memcpy(&rec.trim_lpa, payload, sizeof(Lpa));
    } else {
        corrupt_ = true; // unknown record type
        return false;
    }
    last_seq_ = seq;
    have_seq_ = true;
    at_ = r.pos();
    valid_bytes_ = at_;
    return true;
}

} // namespace leaftl
