// Offline inspection and maintenance of a durable result-cache
// directory (the snapshot + journal written by a medcc_server running
// with --cache-dir; see src/persist and docs/FORMATS.md).
//
//   medcc_cachectl inspect DIR   summarize both files (with a count of
//                                records per cache-record version) and
//                                every entry
//   medcc_cachectl verify DIR    exit 0 iff both files are fully intact
//                                (no torn tail, every record decodes)
//   medcc_cachectl compact DIR   fold the journal into the snapshot,
//                                rewriting every record in the current
//                                version, and reset the journal (offline;
//                                do not run against a live server)
//
// verify distinguishes the failure classes: a torn tail (crash evidence
// the server tolerates and repairs on boot) and an undecodable record
// (version skew or writer bug; skipped on warm start) both fail
// verification but are labelled separately.
#include <array>
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

/// A decoded entry and the record version it was read from.
struct VersionedEntry {
  medcc::service::CacheEntry entry;
  std::uint16_t version = 0;
};

struct FileReport {
  medcc::persist::ReadResult read;
  std::vector<VersionedEntry> entries;
  std::uint64_t decode_errors = 0;
};

FileReport load_file(const std::filesystem::path& path, std::uint32_t magic) {
  FileReport report;
  report.read = medcc::persist::read_record_file(path, magic);
  for (const std::string& payload : report.read.payloads) {
    try {
      report.entries.push_back(
          {medcc::service::decode_cache_record(payload),
           medcc::service::cache_record_version(payload)});
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
  // decode_cache_record accepts versions 1..kCacheRecordVersion only.
  std::array<std::uint64_t, medcc::service::kCacheRecordVersion + 1>
      per_version{};
  for (const VersionedEntry& e : report.entries) ++per_version[e.version];
  for (std::size_t v = 1; v < per_version.size(); ++v)
    std::cout << ", " << per_version[v] << " v" << v;
  if (report.decode_errors > 0)
    std::cout << ", " << report.decode_errors << " undecodable";
  std::cout << "\n";
}

void print_entries(const std::vector<VersionedEntry>& entries) {
  for (const auto& [entry, version] : entries) {
    std::cout << "  v" << version << " key=" << std::hex << entry.key.hi
              << ":" << entry.key.lo << std::dec << " solver=" << entry.solver
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
  const std::uint64_t undecodable =
      snapshot.decode_errors + journal.decode_errors;
  if (torn) std::cout << "verify: torn tail present\n";
  if (undecodable > 0)
    std::cout << "verify: " << undecodable << " undecodable record(s)\n";
  if (torn || undecodable > 0) return 1;
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
  // survivors, re-encoded in the current record version; undecodable
  // payloads are dropped.
  std::vector<const VersionedEntry*> all;
  for (const FileReport* report : {&snapshot, &journal})
    for (const VersionedEntry& e : report->entries) all.push_back(&e);
  std::map<std::pair<std::uint64_t, std::uint64_t>, std::size_t> last;
  for (std::size_t i = 0; i < all.size(); ++i)
    last[{all[i]->entry.key.hi, all[i]->entry.key.lo}] = i;
  std::vector<std::string> payloads;
  payloads.reserve(last.size());
  std::uint64_t upgraded = 0;
  for (std::size_t i = 0; i < all.size(); ++i) {
    if (last[{all[i]->entry.key.hi, all[i]->entry.key.lo}] != i) continue;
    payloads.push_back(medcc::service::encode_cache_record(all[i]->entry));
    if (all[i]->version != medcc::service::kCacheRecordVersion) ++upgraded;
  }

  medcc::persist::write_record_file(dir / medcc::persist::kSnapshotFileName,
                                    medcc::persist::kSnapshotMagic, payloads);
  medcc::persist::write_record_file(dir / medcc::persist::kJournalFileName,
                                    medcc::persist::kJournalMagic, {});
  const std::uint64_t dropped =
      snapshot.decode_errors + journal.decode_errors;
  std::cout << "compact: " << payloads.size() << " entries ("
            << all.size() - payloads.size() << " superseded, " << upgraded
            << " rewritten as v" << medcc::service::kCacheRecordVersion
            << ", " << dropped << " undecodable dropped"
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
