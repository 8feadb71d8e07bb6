// Deterministic mutation fuzzer for the "vhadoop-trace-v1" parser. Valid
// trace texts are mutated (byte flips, token drops and duplications, line
// swaps, truncation, numeric extremes) with a sim::Rng stream, so every run
// checks the same mutants. Each mutant must either parse cleanly and
// round-trip through serialize(), or be rejected with a line/column that
// points inside the input — never crash.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "sim/rng.hpp"
#include "workloads/trace.hpp"

using namespace vhadoop;
using workloads::TraceParseError;
using workloads::WorkloadTrace;

namespace {

/// Valid seed texts: hand-written ones exercising comments, blank lines,
/// tabs and CRLF endings, plus small generated days (the generator's own
/// serialize() output).
std::vector<std::string> seed_texts() {
  std::vector<std::string> seeds = {
      "vhadoop-trace-v1\n"
      "# morning burst\n"
      "0 t0 interactive 7 45 wordcount 64\n"
      "1.5 t1 batch 0 0 terasort 256\n"
      "\n"
      "1.5 t0 interactive 8 30.25 mrbench 16\n"
      "900 t2 batch 2 1200 kmeans 512.5\n",
      "vhadoop-trace-v1\r\n"
      "  # indented comment\r\n"
      "0.125\tt9\tq\t9\t0.5\tkmeans\t1e3\r\n"
      "2 t9 q 0 0 mrbench 0.25\r\n",
      "vhadoop-trace-v1\n",
  };
  for (const std::uint64_t seed : {3u, 11u}) {
    workloads::TraceGenConfig gen;
    gen.num_jobs = 12;
    gen.horizon_seconds = 3600.0;
    gen.num_tenants = 4;
    gen.seed = seed;
    seeds.push_back(workloads::generate_trace(gen).serialize());
  }
  return seeds;
}

std::vector<std::string> split_lines(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t pos = 0;
  for (;;) {
    const std::size_t eol = text.find('\n', pos);
    if (eol == std::string::npos) {
      lines.push_back(text.substr(pos));
      return lines;
    }
    lines.push_back(text.substr(pos, eol - pos));
    pos = eol + 1;
  }
}

std::string join_lines(const std::vector<std::string>& lines) {
  std::string text;
  for (std::size_t i = 0; i < lines.size(); ++i) {
    if (i > 0) text += '\n';
    text += lines[i];
  }
  return text;
}

/// [begin, end) byte ranges of the space/tab-separated tokens of `line`.
std::vector<std::pair<std::size_t, std::size_t>> token_ranges(const std::string& line) {
  std::vector<std::pair<std::size_t, std::size_t>> ranges;
  std::size_t i = 0;
  while (i < line.size()) {
    while (i < line.size() && (line[i] == ' ' || line[i] == '\t')) ++i;
    if (i >= line.size()) break;
    const std::size_t start = i;
    while (i < line.size() && line[i] != ' ' && line[i] != '\t') ++i;
    ranges.emplace_back(start, i);
  }
  return ranges;
}

std::size_t pick(sim::Rng& rng, std::size_t n) {
  return static_cast<std::size_t>(rng.uniform_int(n));
}

/// Bytes a flip writes: the format's separators and number syntax first,
/// then control and high bytes.
constexpr char kFlipBytes[] = {' ', '\t', '\n', '\r', '#', '-', '+', '.', 'e', 'x',
                               '0', '9',  '\0', '\v', '\f', '\x7f', '\x80', '\xff'};

/// Tokens that stress the numeric fields: signed zero, the edges of double
/// and int, subnormals, overflow, hex floats, non-finite spellings.
const char* const kExtremes[] = {
    "-0",      "0",     "+0",     "1e308",     "-1e308",     "1.7976931348623157e308",
    "1e309",   "1e-999", "4.9e-324", "2.2250738585072014e-308", "nan", "inf",
    "-inf",    "9",     "10",     "-1",        "2147483647", "2147483648",
    "-2147483649", "0x1p3", "00000000000000000000001", "1.", ".5", "1e", "--1",
    "99999999999999999999999999999999999999999999999999"};

std::string mutate_once(std::string text, sim::Rng& rng) {
  const std::size_t kind = pick(rng, 6);
  switch (kind) {
    case 0: {  // byte flip
      if (text.empty()) return std::string(1, kFlipBytes[pick(rng, sizeof(kFlipBytes))]);
      const std::size_t at = pick(rng, text.size());
      if (rng.uniform() < 0.5) {
        text[at] = kFlipBytes[pick(rng, sizeof(kFlipBytes))];
      } else {
        text[at] = static_cast<char>(text[at] ^ (1 << pick(rng, 8)));
      }
      return text;
    }
    case 1:    // token drop
    case 2: {  // token duplication
      auto lines = split_lines(text);
      std::string& line = lines[pick(rng, lines.size())];
      const auto toks = token_ranges(line);
      if (toks.empty()) return text;
      const auto [b, e] = toks[pick(rng, toks.size())];
      if (kind == 1) {
        line.erase(b, e - b);
      } else {
        line.insert(e, " " + line.substr(b, e - b));
      }
      return join_lines(lines);
    }
    case 3: {  // line swap
      auto lines = split_lines(text);
      std::swap(lines[pick(rng, lines.size())], lines[pick(rng, lines.size())]);
      return join_lines(lines);
    }
    case 4:  // truncation
      text.resize(pick(rng, text.size() + 1));
      return text;
    default: {  // numeric extreme replaces one token
      auto lines = split_lines(text);
      std::string& line = lines[pick(rng, lines.size())];
      const auto toks = token_ranges(line);
      if (toks.empty()) return text;
      const auto [b, e] = toks[pick(rng, toks.size())];
      line.replace(b, e - b, kExtremes[pick(rng, std::size(kExtremes))]);
      return join_lines(lines);
    }
  }
}

/// A diagnostic must name a line of the input and, unless it is about the
/// whole line (column 0), a column on that line.
void expect_error_within_input(const TraceParseError& err, const std::string& text) {
  const auto lines = split_lines(text);
  ASSERT_GE(err.line, 1) << err.to_string();
  ASSERT_LE(static_cast<std::size_t>(err.line), lines.size()) << err.to_string();
  const std::string& line = lines[static_cast<std::size_t>(err.line) - 1];
  const std::size_t width = std::max<std::size_t>(line.size(), 1);
  EXPECT_GE(err.column, 0) << err.to_string();
  EXPECT_LE(static_cast<std::size_t>(err.column), width) << err.to_string();
  EXPECT_FALSE(err.message.empty());
}

TEST(TraceParserFuzz, EveryMutantParsesCleanlyOrPointsInsideTheInput) {
  const auto seeds = seed_texts();
  sim::Rng rng(0x7ace'f022);
  constexpr int kMutants = 30000;
  int parsed = 0;
  int rejected = 0;
  for (int i = 0; i < kMutants; ++i) {
    std::string text = seeds[pick(rng, seeds.size())];
    const std::size_t rounds = 1 + pick(rng, 3);
    for (std::size_t r = 0; r < rounds; ++r) text = mutate_once(std::move(text), rng);

    WorkloadTrace trace;
    const TraceParseError err = workloads::parse_trace(text, trace);
    if (!err.ok()) {
      ++rejected;
      SCOPED_TRACE("mutant " + std::to_string(i) + ":\n" + text);
      expect_error_within_input(err, text);
      continue;
    }
    ++parsed;
    const std::string canon = trace.serialize();
    WorkloadTrace again;
    const TraceParseError again_err = workloads::parse_trace(canon, again);
    ASSERT_TRUE(again_err.ok()) << "mutant " << i << " re-parse: " << again_err.to_string()
                                << "\ninput:\n" << text << "\ncanonical:\n" << canon;
    ASSERT_EQ(again.records, trace.records) << "mutant " << i << ":\n" << text;
    ASSERT_EQ(again.serialize(), canon) << "mutant " << i;
  }
  // Both outcomes must be well represented, or the mutators have drifted
  // into testing only one side of the parser.
  EXPECT_GT(parsed, kMutants / 20);
  EXPECT_GT(rejected, kMutants / 4);
}

}  // namespace
