#include "exp/runner.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <set>
#include <stdexcept>
#include <thread>

#include "kern/backend.hpp"
#include "obs/export.hpp"
#include "obs/metrics.hpp"
#include "obs/timeline.hpp"
#include "obs/trace.hpp"
#include "par/parallel_for.hpp"
#include "util/csv.hpp"
#include "util/log.hpp"

namespace m2ai::exp {

namespace {

struct FlatCell {
  const Experiment* experiment;
  const Cell* cell;
  int cell_index;
};

// Selected experiments in registration order (the canonical order for
// sharding and RNG forking). `ids` empty selects everything.
std::vector<const Experiment*> select(const Registry& registry,
                                      const std::vector<std::string>& ids) {
  std::set<std::string> wanted(ids.begin(), ids.end());
  for (const std::string& id : wanted) {
    if (registry.find(id) == nullptr) {
      throw std::invalid_argument("exp: unknown experiment '" + id + "'");
    }
  }
  std::vector<const Experiment*> out;
  for (const Experiment& e : registry.all()) {
    if (wanted.empty() || wanted.count(e.id) > 0) out.push_back(&e);
  }
  return out;
}

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
      .count();
}

std::string num(double v, int precision = 6) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*g", precision, v);
  return buf;
}

// ---- shard-file field escaping --------------------------------------------

std::string escape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (char c : s) {
    switch (c) {
      case '\\': out += "\\\\"; break;
      case '\t': out += "\\t"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      default: out += c;
    }
  }
  return out;
}

std::string unescape_field(const std::string& s) {
  std::string out;
  out.reserve(s.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i] != '\\' || i + 1 == s.size()) {
      out += s[i];
      continue;
    }
    switch (s[++i]) {
      case '\\': out += '\\'; break;
      case 't': out += '\t'; break;
      case 'n': out += '\n'; break;
      case 'r': out += '\r'; break;
      default: out += s[i]; break;
    }
  }
  return out;
}

std::vector<std::string> split_tabs(const std::string& line) {
  std::vector<std::string> fields;
  std::string current;
  for (char c : line) {
    if (c == '\t') {
      fields.push_back(current);
      current.clear();
    } else {
      current += c;
    }
  }
  fields.push_back(current);
  return fields;
}

int experiment_order(const Registry& registry, const std::string& id) {
  int order = 0;
  for (const Experiment& e : registry.all()) {
    if (e.id == id) return order;
    ++order;
  }
  throw std::invalid_argument("exp: outcome for unknown experiment '" + id + "'");
}

}  // namespace

SuiteResult run_cells(const Registry& registry, const std::vector<std::string>& ids,
                      const RunnerOptions& options) {
  if (options.shard_count < 1 || options.shard_index < 0 ||
      options.shard_index >= options.shard_count) {
    throw std::invalid_argument("exp: invalid shard spec " +
                                std::to_string(options.shard_index) + "/" +
                                std::to_string(options.shard_count));
  }
  const std::vector<const Experiment*> experiments = select(registry, ids);

  // Flatten to the global cell list. Every cell's RNG is seeded from a
  // stable key — (suite_seed, experiment id, cell index, repetition) — not
  // from a shared fork sequence, so the stream a cell receives is invariant
  // under the shard split AND under --only selection: a standalone
  // single-experiment run draws exactly the suite's streams.
  std::vector<FlatCell> flat;
  for (const Experiment* e : experiments) {
    for (std::size_t c = 0; c < e->cells.size(); ++c) {
      flat.push_back(FlatCell{e, &e->cells[c], static_cast<int>(c)});
    }
  }
  auto cell_seed = [&options](const FlatCell& fc) {
    std::uint64_t h = 0xcbf29ce484222325ULL ^ options.suite_seed;
    auto mix = [&h](const void* data, std::size_t n) {
      const auto* p = static_cast<const unsigned char*>(data);
      for (std::size_t i = 0; i < n; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
      }
    };
    mix(fc.experiment->id.data(), fc.experiment->id.size());
    const std::int32_t key[2] = {fc.cell_index, fc.cell->repetition};
    mix(key, sizeof(key));
    return h ^ (h >> 29);
  };
  std::vector<util::Rng> rngs;
  rngs.reserve(flat.size());
  for (const FlatCell& fc : flat) rngs.emplace_back(cell_seed(fc));

  std::vector<std::size_t> mine;
  for (std::size_t i = 0; i < flat.size(); ++i) {
    if (static_cast<int>(i % static_cast<std::size_t>(options.shard_count)) ==
        options.shard_index) {
      mine.push_back(i);
    }
  }

  DatasetCache cache(options.cache_capacity, options.cache_dir);
  SuiteResult result;
  result.outcomes.resize(mine.size());

  // CI perf-gate hook: an injected per-cell sleep makes every exp_cell span
  // (and the suite's cell_seconds) regress by a known amount, proving the
  // m2ai_obsdiff gate actually trips. Ignored unless the env var is set.
  const char* inject_env = std::getenv("M2AI_PERF_INJECT_MS");
  const int inject_ms = inject_env != nullptr ? std::atoi(inject_env) : 0;

  // Flow arrows bind each dispatched cell to the worker that executes it
  // (id = global cell index + 1; Chrome flow ids must be non-zero).
  if (obs::timeline_enabled()) {
    for (std::size_t i : mine) obs::timeline_flow_start("exp_cell", i + 1);
  }

  const auto suite_start = std::chrono::steady_clock::now();
  auto run_one = [&](std::size_t slot) {
    obs::ScopedSpan span("exp_cell");
    const FlatCell& fc = flat[mine[slot]];
    obs::timeline_flow_end("exp_cell", mine[slot] + 1);
    span.arg("cell", fc.cell_index);
    span.arg("rep", fc.cell->repetition);
    span.arg_str("experiment", fc.experiment->id.c_str());
    if (options.verbose) {
      util::log_info() << "cell " << fc.experiment->id << "[" << fc.cell_index
                       << "] " << fc.cell->label;
    }
    const auto start = std::chrono::steady_clock::now();
    if (inject_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(inject_ms));
    }
    CellContext ctx{fc.cell->config, cache, rngs[mine[slot]], fc.cell->repetition};
    Rows rows = fc.cell->run(ctx);
    CellOutcome& out = result.outcomes[slot];
    out.experiment_id = fc.experiment->id;
    out.cell_index = fc.cell_index;
    out.repetition = fc.cell->repetition;
    out.label = fc.cell->label;
    out.rows = std::move(rows);
    out.seconds = seconds_since(start);
    obs::registry().counter("exp.cells.completed").add();
  };

  // With a single cell in this process, skip the cell-level fan-out so the
  // inner layers (dataset generation, batch training) keep their own
  // parallelism; with many cells, cell-level dispatch wins and the nested
  // regions fall back to serial. Results are identical either way — the
  // whole stack is thread-count-invariant.
  if (mine.size() == 1) {
    run_one(0);
  } else {
    par::parallel_for(mine.size(), run_one);
  }

  result.wall_seconds = seconds_since(suite_start);
  for (const CellOutcome& out : result.outcomes) result.cell_seconds += out.seconds;
  result.cache = cache.stats();

  obs::registry().gauge("exp.suite.wall_seconds").set(result.wall_seconds);
  obs::registry().gauge("exp.suite.cell_seconds").set(result.cell_seconds);
  obs::registry().gauge("exp.suite.cache_hit_rate").set(result.cache.hit_rate());
  return result;
}

void write_experiment_csvs(const Registry& registry,
                           const std::vector<CellOutcome>& outcomes,
                           const std::string& out_dir) {
  std::map<std::string, std::vector<const CellOutcome*>> by_id;
  for (const CellOutcome& out : outcomes) by_id[out.experiment_id].push_back(&out);

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  for (const Experiment& e : registry.all()) {
    const auto it = by_id.find(e.id);
    if (it == by_id.end()) continue;
    std::vector<const CellOutcome*>& cells = it->second;
    std::sort(cells.begin(), cells.end(),
              [](const CellOutcome* a, const CellOutcome* b) {
                if (a->cell_index != b->cell_index) return a->cell_index < b->cell_index;
                return a->repetition < b->repetition;
              });
    if (cells.size() != e.cells.size()) {
      throw std::runtime_error(
          "exp: experiment '" + e.id + "' has " + std::to_string(cells.size()) +
          " of " + std::to_string(e.cells.size()) +
          " cells — merge all shards before writing CSVs");
    }
    for (std::size_t c = 0; c < cells.size(); ++c) {
      if (cells[c]->cell_index != static_cast<int>(c)) {
        throw std::runtime_error("exp: experiment '" + e.id +
                                 "' is missing cell " + std::to_string(c));
      }
    }
    util::CsvWriter csv(out_dir + "/" + e.id + ".csv", e.columns);
    for (const CellOutcome* cell : cells) {
      for (const auto& row : cell->rows) csv.add_row(row);
    }
  }
}

void write_shard_file(const std::string& path, const SuiteResult& result) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("exp: cannot open shard file " + path);
  out << "m2ai-shard-v1\n";
  out << "meta\t" << num(result.wall_seconds, 17) << "\t"
      << num(result.cell_seconds, 17) << "\t" << result.cache.hits << "\t"
      << result.cache.misses << "\t" << result.cache.disk_hits << "\t"
      << result.cache.disk_writes << "\n";
  for (const CellOutcome& cell : result.outcomes) {
    out << "cell\t" << escape_field(cell.experiment_id) << "\t" << cell.cell_index
        << "\t" << cell.repetition << "\t" << num(cell.seconds, 17) << "\t"
        << escape_field(cell.label) << "\n";
    for (const auto& row : cell.rows) {
      out << "row";
      for (const std::string& field : row) out << "\t" << escape_field(field);
      out << "\n";
    }
  }
  if (!out.good()) throw std::runtime_error("exp: failed writing " + path);
}

SuiteResult read_shard_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("exp: cannot open shard file " + path);
  std::string line;
  if (!std::getline(in, line) || line != "m2ai-shard-v1") {
    throw std::runtime_error("exp: " + path + " is not a shard file");
  }
  SuiteResult result;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::vector<std::string> fields = split_tabs(line);
    if (fields[0] == "meta") {
      if (fields.size() != 7) throw std::runtime_error("exp: bad meta in " + path);
      result.wall_seconds = std::stod(fields[1]);
      result.cell_seconds = std::stod(fields[2]);
      result.cache.hits = std::stoull(fields[3]);
      result.cache.misses = std::stoull(fields[4]);
      result.cache.disk_hits = std::stoull(fields[5]);
      result.cache.disk_writes = std::stoull(fields[6]);
    } else if (fields[0] == "cell") {
      if (fields.size() != 6) throw std::runtime_error("exp: bad cell in " + path);
      CellOutcome cell;
      cell.experiment_id = unescape_field(fields[1]);
      cell.cell_index = std::stoi(fields[2]);
      cell.repetition = std::stoi(fields[3]);
      cell.seconds = std::stod(fields[4]);
      cell.label = unescape_field(fields[5]);
      result.outcomes.push_back(std::move(cell));
    } else if (fields[0] == "row") {
      if (result.outcomes.empty()) {
        throw std::runtime_error("exp: row before cell in " + path);
      }
      std::vector<std::string> row;
      for (std::size_t i = 1; i < fields.size(); ++i) {
        row.push_back(unescape_field(fields[i]));
      }
      result.outcomes.back().rows.push_back(std::move(row));
    } else {
      throw std::runtime_error("exp: unknown record '" + fields[0] + "' in " + path);
    }
  }
  return result;
}

SuiteResult merge_results(const Registry& registry,
                          const std::vector<SuiteResult>& shards) {
  SuiteResult merged;
  for (const SuiteResult& shard : shards) {
    merged.outcomes.insert(merged.outcomes.end(), shard.outcomes.begin(),
                           shard.outcomes.end());
    merged.wall_seconds = std::max(merged.wall_seconds, shard.wall_seconds);
    merged.cell_seconds += shard.cell_seconds;
    merged.cache.hits += shard.cache.hits;
    merged.cache.misses += shard.cache.misses;
    merged.cache.disk_hits += shard.cache.disk_hits;
    merged.cache.disk_writes += shard.cache.disk_writes;
  }
  std::sort(merged.outcomes.begin(), merged.outcomes.end(),
            [&](const CellOutcome& a, const CellOutcome& b) {
              const int oa = experiment_order(registry, a.experiment_id);
              const int ob = experiment_order(registry, b.experiment_id);
              if (oa != ob) return oa < ob;
              if (a.cell_index != b.cell_index) return a.cell_index < b.cell_index;
              return a.repetition < b.repetition;
            });
  for (std::size_t i = 1; i < merged.outcomes.size(); ++i) {
    const CellOutcome& prev = merged.outcomes[i - 1];
    const CellOutcome& cur = merged.outcomes[i];
    if (prev.experiment_id == cur.experiment_id &&
        prev.cell_index == cur.cell_index && prev.repetition == cur.repetition) {
      throw std::runtime_error("exp: duplicate outcome for " + cur.experiment_id +
                               "[" + std::to_string(cur.cell_index) + "]");
    }
  }
  return merged;
}

std::string suite_report_json(const Registry& registry, const SuiteResult& result,
                              int threads, double scale, const std::string& label) {
  std::map<std::string, std::pair<int, double>> per_experiment;  // cells, seconds
  std::map<std::string, std::size_t> row_counts;
  for (const CellOutcome& out : result.outcomes) {
    auto& agg = per_experiment[out.experiment_id];
    agg.first += 1;
    agg.second += out.seconds;
    row_counts[out.experiment_id] += out.rows.size();
  }

  std::string json = "{\n  \"schema_version\": 1,\n  \"suite\": \"m2ai_bench\",\n";
  json += "  \"label\": \"" + obs::json_escape(label) + "\",\n";
  // Which kern backend produced these numbers — committed reports must be
  // self-describing across ref/fast runs.
  json += "  \"backend\": \"" + std::string(kern::active_backend_name()) + "\",\n";
  json += "  \"threads\": " + std::to_string(threads) + ",\n";
  json += "  \"scale\": " + num(scale) + ",\n";
  json += "  \"cells_run\": " + std::to_string(result.outcomes.size()) + ",\n";
  json += "  \"wall_seconds\": " + num(result.wall_seconds) + ",\n";
  json += "  \"serial_cell_seconds\": " + num(result.cell_seconds) + ",\n";
  const double speedup =
      result.wall_seconds > 0.0 ? result.cell_seconds / result.wall_seconds : 0.0;
  json += "  \"speedup_vs_serial\": " + num(speedup) + ",\n";
  json += "  \"cache\": {\"hits\": " + std::to_string(result.cache.hits) +
          ", \"misses\": " + std::to_string(result.cache.misses) +
          ", \"disk_hits\": " + std::to_string(result.cache.disk_hits) +
          ", \"disk_writes\": " + std::to_string(result.cache.disk_writes) +
          ", \"hit_rate\": " + num(result.cache.hit_rate()) + "},\n";
  json += "  \"experiments\": [";
  bool first = true;
  for (const Experiment& e : registry.all()) {
    const auto it = per_experiment.find(e.id);
    if (it == per_experiment.end()) continue;
    json += first ? "\n" : ",\n";
    first = false;
    json += "    {\"id\": \"" + obs::json_escape(e.id) + "\", \"figure\": \"" +
            obs::json_escape(e.figure) + "\", \"cells\": " +
            std::to_string(e.cells.size()) + ", \"cells_run\": " +
            std::to_string(it->second.first) + ", \"cell_seconds\": " +
            num(it->second.second) + ", \"rows\": " +
            std::to_string(row_counts[e.id]) + "}";
  }
  json += first ? "]\n}\n" : "\n  ]\n}\n";
  return json;
}

void write_suite_report(const std::string& path, const Registry& registry,
                        const SuiteResult& result, int threads, double scale,
                        const std::string& label) {
  const std::filesystem::path parent = std::filesystem::path(path).parent_path();
  if (!parent.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(parent, ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("exp: cannot open " + path);
  out << suite_report_json(registry, result, threads, scale, label);
  if (!out.good()) throw std::runtime_error("exp: failed writing " + path);
}

}  // namespace m2ai::exp
