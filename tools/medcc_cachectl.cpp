// Offline inspection and maintenance of a durable result-cache
// directory (the snapshot + journal written by a medcc_server running
// with --cache-dir; see src/persist and docs/FORMATS.md).
//
//   medcc_cachectl inspect DIR   summarize both files (with a count of
//                                records per cache-record version) and
//                                every current-version entry
//   medcc_cachectl verify DIR    exit 0 iff both files are fully intact
//                                (no torn tail, every record decodes)
//   medcc_cachectl compact DIR   fold the journal into the snapshot,
//                                keeping the current-version records and
//                                dropping the rest, and reset the journal
//                                (offline; do not run against a live
//                                server)
//
// verify distinguishes the failure classes: a torn tail (crash evidence
// the server tolerates and repairs on boot), an older-version record
// (written by an earlier build; its key can never match, so warm start
// skips it) and an undecodable record (a future version or a writer
// bug; also skipped on warm start) all fail verification but are
// labelled separately.
#include <cstdint>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "persist/record_file.hpp"
#include "service/persistence.hpp"

namespace {

constexpr const char* kUsage =
    "usage: medcc_cachectl {inspect|verify|compact} DIR\n";

struct FileReport {
  medcc::persist::ReadResult read;
  std::vector<medcc::service::CacheEntry> entries;
  /// Records per version: the current one's that decode, and every
  /// older one's.
  std::map<std::uint16_t, std::uint64_t> per_version;
  std::uint64_t older = 0;  ///< records of an earlier version
  std::uint64_t decode_errors = 0;
};

FileReport load_file(const std::filesystem::path& path, std::uint32_t magic) {
  FileReport report;
  report.read = medcc::persist::read_record_file(path, magic);
  for (const std::string& payload : report.read.payloads) {
    try {
      const std::uint16_t version =
          medcc::service::cache_record_version(payload);
      if (version < medcc::service::kCacheRecordVersion)
        ++report.older;
      else
        report.entries.push_back(
            medcc::service::decode_cache_record(payload));
      ++report.per_version[version];
    } catch (const medcc::persist::PersistError&) {
      ++report.decode_errors;
    }
  }
  return report;
}

void print_file_summary(std::string_view name, const FileReport& report) {
  std::cout << name << ": ";
  if (!report.read.exists) {
    std::cout << "missing\n";
    return;
  }
  std::cout << report.read.payloads.size() << " records, "
            << report.read.valid_bytes << " valid bytes"
            << (report.read.truncated ? ", TORN TAIL" : "");
  for (const auto& [version, count] : report.per_version)
    std::cout << ", " << count << " v" << version;
  if (report.decode_errors > 0)
    std::cout << ", " << report.decode_errors << " undecodable";
  std::cout << "\n";
}

void print_entries(const std::vector<medcc::service::CacheEntry>& entries) {
  for (const auto& entry : entries) {
    std::cout << "  key=" << std::hex << entry.key.hi << ":" << entry.key.lo
              << std::dec << " solver=" << entry.solver
              << " modules=" << entry.schedule.type_of.size()
              << " med=" << entry.med << " cost=" << entry.cost
              << " iterations=" << entry.iterations << " hits=" << entry.hits
              << (entry.remappable ? " remappable" : "") << "\n";
  }
}

int inspect(const std::filesystem::path& dir) {
  const FileReport snapshot =
      load_file(dir / medcc::persist::kSnapshotFileName,
                medcc::persist::kSnapshotMagic);
  const FileReport journal = load_file(dir / medcc::persist::kJournalFileName,
                                       medcc::persist::kJournalMagic);
  print_file_summary("snapshot", snapshot);
  print_entries(snapshot.entries);
  print_file_summary("journal", journal);
  print_entries(journal.entries);
  return 0;
}

int verify(const std::filesystem::path& dir) {
  const FileReport snapshot =
      load_file(dir / medcc::persist::kSnapshotFileName,
                medcc::persist::kSnapshotMagic);
  const FileReport journal = load_file(dir / medcc::persist::kJournalFileName,
                                       medcc::persist::kJournalMagic);
  print_file_summary("snapshot", snapshot);
  print_file_summary("journal", journal);
  const bool torn = snapshot.read.truncated || journal.read.truncated;
  const std::uint64_t older = snapshot.older + journal.older;
  const std::uint64_t undecodable =
      snapshot.decode_errors + journal.decode_errors;
  if (torn) std::cout << "verify: torn tail present\n";
  if (older > 0)
    std::cout << "verify: " << older << " older-version record(s)\n";
  if (undecodable > 0)
    std::cout << "verify: " << undecodable << " undecodable record(s)\n";
  if (torn || older > 0 || undecodable > 0) return 1;
  std::cout << "verify: ok ("
            << snapshot.entries.size() + journal.entries.size()
            << " records)\n";
  return 0;
}

int compact(const std::filesystem::path& dir) {
  const FileReport snapshot =
      load_file(dir / medcc::persist::kSnapshotFileName,
                medcc::persist::kSnapshotMagic);
  const FileReport journal = load_file(dir / medcc::persist::kJournalFileName,
                                       medcc::persist::kJournalMagic);

  // Replay order (snapshot then journal) with last-wins per key: keep
  // only each key's final occurrence, preserving replay order among the
  // survivors; older-version and undecodable payloads are dropped.
  std::vector<const medcc::service::CacheEntry*> all;
  for (const FileReport* report : {&snapshot, &journal})
    for (const auto& entry : report->entries) all.push_back(&entry);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> last;
  for (std::size_t i = 0; i < all.size(); ++i)
    last[{all[i]->key.hi, all[i]->key.lo}] = i;
  std::vector<std::string> payloads;
  payloads.reserve(last.size());
  for (std::size_t i = 0; i < all.size(); ++i)
    if (last[{all[i]->key.hi, all[i]->key.lo}] == i)
      payloads.push_back(medcc::service::encode_cache_record(*all[i]));

  medcc::persist::write_record_file(dir / medcc::persist::kSnapshotFileName,
                                    medcc::persist::kSnapshotMagic, payloads);
  medcc::persist::write_record_file(dir / medcc::persist::kJournalFileName,
                                    medcc::persist::kJournalMagic, {});
  std::cout << "compact: " << payloads.size() << " entries ("
            << all.size() - payloads.size() << " superseded, "
            << snapshot.older + journal.older << " older-version dropped, "
            << snapshot.decode_errors + journal.decode_errors
            << " undecodable dropped"
            << (snapshot.read.truncated || journal.read.truncated
                    ? ", torn tail cut"
                    : "")
            << ")\n";
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc != 3) {
    std::cerr << kUsage;
    return 2;
  }
  const std::string_view command = argv[1];
  const std::filesystem::path dir = argv[2];
  try {
    if (command == "inspect") return inspect(dir);
    if (command == "verify") return verify(dir);
    if (command == "compact") return compact(dir);
  } catch (const std::exception& ex) {
    std::cerr << "medcc_cachectl: " << ex.what() << "\n";
    return 1;
  }
  std::cerr << kUsage;
  return 2;
}
