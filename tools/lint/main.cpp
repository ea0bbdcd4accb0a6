// xfa_lint — token-level static analysis for the XFA tree.
//
// Usage:
//   xfa_lint [--format=text|json|sarif] [--out=PATH] [--threads=N] <repo-root>
//   xfa_lint --list
//
// Exit status: min(active findings, 100); 64 on usage errors. Suppressed
// findings and stale suppressions never fail the run but are always shown.

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <string>

#include "common/parse.h"
#include "lint/lint.h"
#include "lint/report.h"

namespace {

int usage() {
  std::fprintf(stderr,
               "usage: xfa_lint [--format=text|json|sarif] [--out=PATH] "
               "[--threads=N] <repo-root>\n"
               "       xfa_lint --list\n");
  return 64;
}

}  // namespace

int main(int argc, char** argv) {
  std::string format = "text";
  std::string out_path;
  std::string root;
  std::size_t threads = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--list") {
      std::fputs(xfa::lint::render_rule_list().c_str(), stdout);
      return 0;
    }
    if (arg.rfind("--format=", 0) == 0) {
      format = arg.substr(9);
      if (format != "text" && format != "json" && format != "sarif")
        return usage();
    } else if (arg.rfind("--out=", 0) == 0) {
      out_path = arg.substr(6);
    } else if (arg.rfind("--threads=", 0) == 0) {
      const xfa::Result<std::uint64_t> parsed = xfa::parse_u64(arg.substr(10));
      if (!parsed.ok()) return usage();
      threads = static_cast<std::size_t>(*parsed);
    } else if (!arg.empty() && arg[0] == '-') {
      return usage();
    } else if (root.empty()) {
      root = arg;
    } else {
      return usage();
    }
  }
  if (root.empty()) return usage();

  const xfa::lint::LintResult result = xfa::lint::run_lint(root, threads);
  std::string rendered;
  if (format == "json") {
    rendered = xfa::lint::render_json(result);
  } else if (format == "sarif") {
    rendered = xfa::lint::render_sarif(result);
  } else {
    rendered = xfa::lint::render_text(result);
  }
  if (out_path.empty()) {
    std::fputs(rendered.c_str(), stdout);
  } else {
    std::ofstream out(out_path, std::ios::binary);
    if (!out) {
      std::fprintf(stderr, "xfa_lint: cannot write %s\n", out_path.c_str());
      return 64;
    }
    out << rendered;
    // Machine formats went to the file; keep the human summary on stdout.
    std::fputs(xfa::lint::render_text(result).c_str(), stdout);
  }

  const std::size_t n = result.findings.size();
  return static_cast<int>(n > 100 ? 100 : n);
}
