#include "core/journal.hpp"

#include <cstdio>
#include <sstream>

#include "core/encoding.hpp"
#include "core/fault.hpp"
#include "runtime/telemetry.hpp"

namespace apex::core {

namespace {

// Payload primitives (length-prefixed strings, Status, Diagnostics)
// are shared with the worker-pool and service protocols — see
// core/encoding.hpp.
using namespace enc;

constexpr std::string_view kJournalMagic = "apexsweep";
// Version 2: AppRecord cells carry mine_capped_levels.  Version 3:
// a cell record carries each fact once — a success is its
// serializeEvalResult blob alone, a failure its attempts and Status.
// A version mismatch is a fingerprint mismatch: the old journal is
// ignored and the sweep restarts from scratch (never mis-decoded).
constexpr int kJournalVersion = 3;

std::string
hex64(std::uint64_t v)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(v));
    return buf;
}

// --- record payloads -------------------------------------------------

std::string
encodeHeader(std::uint64_t fingerprint, std::size_t app_count)
{
    std::ostringstream os;
    os << "fp " << hex64(fingerprint) << "\napps " << app_count
       << '\n';
    return os.str();
}

bool
headerMatches(const runtime::FramedRecord &rec,
              std::uint64_t fingerprint, std::size_t app_count)
{
    return rec.type == "sweep" &&
           rec.payload == encodeHeader(fingerprint, app_count);
}

std::string
encodeApp(const SweepJournal::AppRecord &rec)
{
    std::ostringstream os;
    os << rec.app << '\n';
    putStatus(os, rec.validate_status);
    os << (rec.spec_failed ? 1 : 0) << '\n';
    putStr(os, rec.spec_name);
    putStatus(os, rec.spec_status);
    for (const SweepJournal::CellInfo &c : rec.cells) {
        os << (c.has_variant ? 1 : 0) << ' ' << c.non_optimal_merges
           << ' ' << c.merge_timeouts << ' ' << c.mine_capped_levels
           << '\n';
        putStr(os, c.variant);
    }
    return os.str();
}

bool
decodeApp(const std::string &payload, SweepJournal::AppRecord *out)
{
    std::istringstream is(payload);
    if (!(is >> out->app))
        return false;
    is.get();
    if (!getStatus(is, &out->validate_status))
        return false;
    int spec_failed = 0;
    if (!(is >> spec_failed))
        return false;
    is.get();
    out->spec_failed = spec_failed != 0;
    if (!getStr(is, &out->spec_name))
        return false;
    if (!getStatus(is, &out->spec_status))
        return false;
    for (SweepJournal::CellInfo &c : out->cells) {
        int has = 0;
        if (!(is >> has >> c.non_optimal_merges >> c.merge_timeouts >>
              c.mine_capped_levels))
            return false;
        is.get();
        c.has_variant = has != 0;
        if (!getStr(is, &c.variant))
            return false;
    }
    return true;
}

std::string
encodeCell(const SweepJournal::CellRecord &rec)
{
    const EvalResult &r = rec.result;
    std::ostringstream os;
    os << rec.app << ' ' << rec.cell << ' ' << (r.success ? 1 : 0)
       << '\n';
    putStr(os, rec.variant);
    if (r.success) {
        putStr(os, serializeEvalResult(r));
    } else {
        os << r.pnr_attempts << ' ' << (r.degraded ? 1 : 0) << '\n';
        putStatus(os, r.status);
    }
    putDiagnostics(os, r.diagnostics);
    return os.str();
}

bool
decodeCell(const std::string &payload, SweepJournal::CellRecord *out)
{
    std::istringstream is(payload);
    int success = 0;
    if (!(is >> out->app >> out->cell >> success))
        return false;
    is.get();
    if (!getStr(is, &out->variant))
        return false;
    EvalResult r;
    if (success != 0) {
        std::string blob;
        if (!getStr(is, &blob))
            return false;
        Result<EvalResult> parsed = parseEvalResult(blob);
        if (!parsed.ok())
            return false;
        r = std::move(parsed).value();
    } else {
        int degraded = 0;
        if (!(is >> r.pnr_attempts >> degraded))
            return false;
        is.get();
        r.degraded = degraded != 0;
        if (!getStatus(is, &r.status))
            return false;
    }
    if (!getDiagnostics(is, &r.diagnostics))
        return false;
    out->result = std::move(r);
    return true;
}

} // namespace

std::string
SweepJournal::encodeCellRecordPayload(const CellRecord &rec)
{
    return encodeCell(rec);
}

bool
SweepJournal::decodeCellRecordPayload(const std::string &payload,
                                      CellRecord *out)
{
    return decodeCell(payload, out);
}

Status
SweepJournal::open(const std::string &dir, std::uint64_t fingerprint,
                   std::size_t app_count, bool resume)
{
    log_.reset();
    apps_.assign(app_count, std::nullopt);
    cells_.assign(app_count, {});
    replayed_cells_ = 0;

    const std::string path = dir + "/sweep.journal";
    auto log = std::make_unique<runtime::RecordLog>();
    APEX_RETURN_IF_ERROR(
        log->open(path, kJournalMagic, kJournalVersion, resume));

    bool need_header = true;
    if (resume && !log->records().empty()) {
        APEX_SPAN("journal.replay");
        const auto &records = log->records();
        if (headerMatches(records.front(), fingerprint, app_count)) {
            need_header = false;
            for (std::size_t i = 1; i < records.size(); ++i) {
                const runtime::FramedRecord &rec = records[i];
                if (rec.type == "app") {
                    AppRecord app;
                    if (decodeApp(rec.payload, &app) && app.app >= 0 &&
                        static_cast<std::size_t>(app.app) < app_count)
                        apps_[app.app] = std::move(app);
                } else if (rec.type == "cell") {
                    CellRecord cell;
                    if (decodeCell(rec.payload, &cell) &&
                        cell.app >= 0 &&
                        static_cast<std::size_t>(cell.app) <
                            app_count &&
                        cell.cell >= 0 &&
                        cell.cell < kJournalCellsPerApp) {
                        auto &slot = cells_[cell.app][cell.cell];
                        if (!slot.has_value()) {
                            ++replayed_cells_;
                            telemetry::counter(
                                "apex.journal.replayed_cells")
                                .add(1);
                        }
                        slot = std::move(cell);
                    }
                }
            }
        } else {
            // A prior journal for a *different* sweep configuration:
            // replaying its cells would poison the report.  Close the
            // recovered handle and restart the log empty.
            log.reset();
            log = std::make_unique<runtime::RecordLog>();
            APEX_RETURN_IF_ERROR(log->open(path, kJournalMagic,
                                           kJournalVersion, false));
        }
    }
    if (need_header)
        APEX_RETURN_IF_ERROR(
            log->append("sweep", encodeHeader(fingerprint, app_count)));
    log_ = std::move(log);
    return Status::okStatus();
}

bool
SweepJournal::active() const
{
    return log_ != nullptr && log_->active();
}

Status
SweepJournal::lastError() const
{
    return log_ != nullptr ? log_->lastError() : Status::okStatus();
}

const SweepJournal::AppRecord *
SweepJournal::appRecord(std::size_t app) const
{
    if (app >= apps_.size() || !apps_[app].has_value())
        return nullptr;
    return &*apps_[app];
}

const SweepJournal::CellRecord *
SweepJournal::cellRecord(std::size_t app, int cell) const
{
    if (app >= cells_.size() || cell < 0 ||
        cell >= kJournalCellsPerApp ||
        !cells_[app][cell].has_value())
        return nullptr;
    return &*cells_[app][cell];
}

void
SweepJournal::appendApp(const AppRecord &rec)
{
    if (!active())
        return;
    APEX_SPAN("journal.append", {{"kind", "app"}});
    // A failed append latches in the record log (lastError()) and
    // deactivates it; later appends no-op and the sweep reports the
    // failure loudly after assembly.
    if (log_->append("app", encodeApp(rec)).ok())
        telemetry::counter("apex.journal.appends").add(1);
    crashPoint();
}

void
SweepJournal::appendCell(const CellRecord &rec)
{
    if (!active())
        return;
    APEX_SPAN("journal.append", {{"kind", "cell"}});
    if (log_->append("cell", encodeCell(rec)).ok())
        telemetry::counter("apex.journal.appends").add(1);
    crashPoint();
}

} // namespace apex::core
