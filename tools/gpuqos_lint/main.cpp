// gpuqos_lint CLI (docs/ANALYSIS.md, "gpuqos-lint").
//
//   gpuqos_lint [options] <file-or-dir>...
//     --format=human|json|github|sarif  output format (default human)
//     --baseline=FILE              explicit baseline (default: nearest
//                                  tools/gpuqos_lint/baseline.txt above the
//                                  first input path)
//     --no-baseline                ignore any baseline
//     --write-baseline=FILE        write current findings as a baseline and
//                                  exit 0
//     --rules=r1,r2                run only the named rules
//     --roots=a,b                  thread-purity reachability roots
//                                  (default run_many,run_hetero)
//     --det-roots=a,b              det-hazard reachability roots
//                                  (default tick,digest,save,load)
//     --threads=N                  parse worker threads (0 = auto, default)
//     --stats                      per-rule timing table on stderr
//     --changed-only=GITREF        parse everything (cross-TU context) but
//                                  report findings only in files changed
//                                  vs. GITREF (git diff --name-only)
//     --list-rules                 print rule names and exit
//
// Exit status: 0 clean (after NOLINT + baseline), 1 findings, 2 usage/IO
// error. Directories are scanned recursively for .hpp/.cpp, skipping
// build*/ and hidden directories.
//
// NOLINT-gpuqos-file(check-hygiene): a command-line tool reports to its
// terminal; GPUQOS_LOG is the simulator's cycle-stamped log and has no
// cycle to stamp here.
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>

#include "lint.hpp"

namespace fs = std::filesystem;
using namespace gpuqos::lint;

namespace {

int usage(const char* argv0) {
  std::cerr << "usage: " << argv0
            << " [--format=human|json|github|sarif]"
               " [--baseline=FILE|--no-baseline] [--write-baseline=FILE]"
               " [--rules=...] [--roots=...] [--det-roots=...] [--threads=N]"
               " [--stats] [--changed-only=GITREF] <file-or-dir>...\n";
  return 2;
}

bool read_file(const fs::path& p, std::string& out) {
  std::ifstream in(p, std::ios::binary);
  if (!in) return false;
  std::ostringstream ss;
  ss << in.rdbuf();
  out = ss.str();
  return true;
}

void collect(const fs::path& p, std::vector<fs::path>& out) {
  if (fs::is_regular_file(p)) {
    const std::string ext = p.extension().string();
    if (ext == ".hpp" || ext == ".cpp" || ext == ".h" || ext == ".cc") {
      out.push_back(p);
    }
    return;
  }
  if (!fs::is_directory(p)) return;
  for (const auto& entry : fs::directory_iterator(p)) {
    const std::string name = entry.path().filename().string();
    if (entry.is_directory()) {
      if (name.rfind("build", 0) == 0 || name.front() == '.') continue;
      collect(entry.path(), out);
    } else {
      collect(entry.path(), out);
    }
  }
}

/// Nearest tools/gpuqos_lint/baseline.txt at or above `start`.
std::string find_default_baseline(const fs::path& start) {
  std::error_code ec;
  fs::path dir = fs::absolute(start, ec);
  if (ec) return "";
  if (!fs::is_directory(dir)) dir = dir.parent_path();
  for (; !dir.empty(); dir = dir.parent_path()) {
    const fs::path candidate = dir / "tools" / "gpuqos_lint" / "baseline.txt";
    if (fs::exists(candidate)) return candidate.string();
    if (dir == dir.root_path()) break;
  }
  return "";
}

std::vector<std::string> split_list(const std::string& s) {
  std::vector<std::string> out;
  std::stringstream ss(s);
  std::string item;
  while (std::getline(ss, item, ',')) {
    if (!item.empty()) out.push_back(item);
  }
  return out;
}

/// Parse-cache key: mtime ^ size, never 0 for an existing file (0 means
/// "don't cache").
std::uint64_t file_stamp(const fs::path& p) {
  std::error_code ec;
  const auto mtime = fs::last_write_time(p, ec);
  if (ec) return 0;
  const auto size = fs::file_size(p, ec);
  if (ec) return 0;
  const std::uint64_t stamp =
      static_cast<std::uint64_t>(mtime.time_since_epoch().count()) ^
      static_cast<std::uint64_t>(size);
  return stamp != 0 ? stamp : 1;
}

/// `git diff --name-only <ref>` as a path set; false on git failure.
bool changed_files(const std::string& ref, std::set<std::string>& out) {
  const std::string cmd = "git diff --name-only '" + ref + "' 2>/dev/null";
  FILE* pipe = popen(cmd.c_str(), "r");
  if (pipe == nullptr) return false;
  char buf[4096];
  std::string text;
  while (std::fgets(buf, sizeof buf, pipe) != nullptr) text += buf;
  if (pclose(pipe) != 0) return false;
  std::stringstream ss(text);
  std::string line;
  while (std::getline(ss, line)) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (!line.empty()) out.insert(line);
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "human";
  std::string baseline_path;
  std::string write_baseline_path;
  std::string changed_only_ref;
  bool no_baseline = false;
  bool want_stats = false;
  LintOptions opts;
  std::vector<fs::path> inputs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value_of = [&](const std::string& prefix) {
      return arg.substr(prefix.size());
    };
    if (arg == "-h" || arg == "--help") {
      usage(argv[0]);
      return 0;
    } else if (arg == "--list-rules") {
      for (const std::string& r : all_rules()) std::cout << r << "\n";
      return 0;
    } else if (arg.rfind("--format=", 0) == 0) {
      format = value_of("--format=");
      if (format != "human" && format != "json" && format != "github" &&
          format != "sarif") {
        return usage(argv[0]);
      }
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = value_of("--baseline=");
    } else if (arg == "--no-baseline") {
      no_baseline = true;
    } else if (arg.rfind("--write-baseline=", 0) == 0) {
      write_baseline_path = value_of("--write-baseline=");
    } else if (arg.rfind("--rules=", 0) == 0) {
      for (const std::string& r : split_list(value_of("--rules="))) {
        bool known = false;
        for (const std::string& k : all_rules()) known = known || k == r;
        if (!known) {
          std::cerr << "gpuqos_lint: unknown rule '" << r << "'\n";
          return 2;
        }
        opts.rules.insert(r);
      }
    } else if (arg.rfind("--roots=", 0) == 0) {
      opts.purity_roots = split_list(value_of("--roots="));
    } else if (arg.rfind("--det-roots=", 0) == 0) {
      opts.det_roots = split_list(value_of("--det-roots="));
    } else if (arg.rfind("--threads=", 0) == 0) {
      opts.threads =
          static_cast<unsigned>(std::atoi(value_of("--threads=").c_str()));
    } else if (arg == "--stats") {
      want_stats = true;
    } else if (arg.rfind("--changed-only=", 0) == 0) {
      changed_only_ref = value_of("--changed-only=");
      if (changed_only_ref.empty()) return usage(argv[0]);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage(argv[0]);
    } else {
      inputs.emplace_back(arg);
    }
  }
  if (inputs.empty()) return usage(argv[0]);

  std::vector<fs::path> paths;
  for (const fs::path& p : inputs) {
    if (!fs::exists(p)) {
      std::cerr << "gpuqos_lint: no such file or directory: " << p << "\n";
      return 2;
    }
    collect(p, paths);
  }
  std::sort(paths.begin(), paths.end());

  std::vector<FileInput> files;
  files.reserve(paths.size());
  for (const fs::path& p : paths) {
    FileInput f;
    f.path = p.generic_string();
    if (!read_file(p, f.content)) {
      std::cerr << "gpuqos_lint: cannot read " << p << "\n";
      return 2;
    }
    f.stamp = file_stamp(p);
    files.push_back(std::move(f));
  }

  ParseCache cache;
  LintResult result = run_lint_cached(files, cache, opts);

  if (!write_baseline_path.empty()) {
    std::ofstream out(write_baseline_path, std::ios::binary);
    out << to_baseline(result);
    if (!out) {
      std::cerr << "gpuqos_lint: cannot write " << write_baseline_path
                << "\n";
      return 2;
    }
    std::cout << "wrote " << result.findings.size() << " fingerprint(s) to "
              << write_baseline_path << "\n";
    return 0;
  }

  if (!no_baseline) {
    if (baseline_path.empty() && !inputs.empty()) {
      baseline_path = find_default_baseline(inputs.front());
    }
    if (!baseline_path.empty()) {
      std::string text;
      if (!read_file(baseline_path, text)) {
        std::cerr << "gpuqos_lint: cannot read baseline " << baseline_path
                  << "\n";
        return 2;
      }
      apply_baseline(result, parse_baseline(text));
    }
  }

  if (!changed_only_ref.empty()) {
    std::set<std::string> changed;
    if (!changed_files(changed_only_ref, changed)) {
      std::cerr << "gpuqos_lint: git diff --name-only '" << changed_only_ref
                << "' failed\n";
      return 2;
    }
    // The full input set was still parsed (cross-TU rules need the whole
    // symbol table); only the reporting is narrowed to the changed paths.
    // git emits repo-root-relative paths, so run from the repository root.
    std::vector<Finding> kept;
    for (Finding& f : result.findings) {
      if (changed.count(f.file) != 0) kept.push_back(std::move(f));
    }
    result.findings = std::move(kept);
  }

  if (want_stats) std::cerr << format_stats(result);

  // Baselined fingerprints are path-relative: findings are reported with the
  // paths as given, so run from the repository root (the ctest does).
  if (format == "json") {
    std::cout << format_json(result);
  } else if (format == "github") {
    std::cout << format_github(result);
    std::cout << result.findings.size() << " finding(s)\n";
  } else if (format == "sarif") {
    std::cout << format_sarif(result);
  } else {
    std::cout << format_human(result);
  }
  return result.findings.empty() ? 0 : 1;
}
