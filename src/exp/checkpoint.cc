#include "exp/checkpoint.h"

#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <utility>

namespace vfl::exp {

namespace {

constexpr char kFingerprintTag[] = "fp";
constexpr char kCellTag[] = "cell";
constexpr char kSep = '\t';

std::string HexDouble(double value) {
  char buffer[64];
  std::snprintf(buffer, sizeof(buffer), "%a", value);
  return buffer;
}

core::StatusOr<double> ParseHexDouble(const std::string& token) {
  char* end = nullptr;
  const double value = std::strtod(token.c_str(), &end);
  if (end == token.c_str() || *end != '\0') {
    return core::Status::InvalidArgument("bad checkpoint double: " + token);
  }
  return value;
}

std::vector<std::string> SplitFields(std::string_view payload) {
  std::vector<std::string> fields;
  std::size_t start = 0;
  for (std::size_t i = 0; i <= payload.size(); ++i) {
    if (i == payload.size() || payload[i] == kSep) {
      fields.emplace_back(payload.substr(start, i - start));
      start = i + 1;
    }
  }
  return fields;
}

/// cell <key> <d_target> <n> (<metric> <hex value>){n}
std::string EncodeCell(const std::string& key, const CheckpointCell& cell) {
  std::string payload = kCellTag;
  payload += kSep;
  payload += key;
  payload += kSep;
  payload += std::to_string(cell.d_target);
  payload += kSep;
  payload += std::to_string(cell.values.size());
  for (std::size_t i = 0; i < cell.values.size(); ++i) {
    payload += kSep;
    payload += cell.metric_names[i];
    payload += kSep;
    payload += HexDouble(cell.values[i]);
  }
  return payload;
}

core::Status DecodeCell(const std::vector<std::string>& fields,
                        std::string* key, CheckpointCell* cell) {
  if (fields.size() < 4) {
    return core::Status::InvalidArgument("short checkpoint cell record");
  }
  *key = fields[1];
  cell->d_target = static_cast<std::size_t>(
      std::strtoull(fields[2].c_str(), nullptr, 10));
  const std::size_t n = static_cast<std::size_t>(
      std::strtoull(fields[3].c_str(), nullptr, 10));
  if (fields.size() != 4 + 2 * n) {
    return core::Status::InvalidArgument(
        "checkpoint cell record field count mismatch");
  }
  cell->metric_names.clear();
  cell->values.clear();
  cell->metric_names.reserve(n);
  cell->values.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    cell->metric_names.push_back(fields[4 + 2 * i]);
    VFL_ASSIGN_OR_RETURN(const double value,
                         ParseHexDouble(fields[5 + 2 * i]));
    cell->values.push_back(value);
  }
  return core::Status::Ok();
}

void AppendField(std::string* out, std::string_view key,
                 std::string_view value) {
  out->append(key);
  out->push_back('=');
  out->append(value);
  out->push_back('\n');
}

void AppendSizeList(std::string* out, std::string_view key,
                    const std::vector<std::size_t>& values) {
  std::string text;
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i > 0) text += 'x';
    text += std::to_string(values[i]);
  }
  AppendField(out, key, text);
}

}  // namespace

std::string MakeCellKey(const std::string& dataset,
                        const std::string& channel_spec,
                        const std::string& sim_profile, double fraction,
                        std::size_t trial) {
  std::string key = dataset;
  key += '|';
  key += channel_spec;
  key += '|';
  key += sim_profile;
  key += '|';
  key += HexDouble(fraction);
  key += '|';
  key += std::to_string(trial);
  return key;
}

std::string SpecFingerprint(const ExperimentSpec& spec,
                            const ScaleConfig& scale, std::size_t trials) {
  std::string fp = "vflfia_checkpoint_v1\n";
  AppendField(&fp, "name", spec.name);
  std::string datasets;
  for (const std::string& d : spec.datasets) datasets += d + ";";
  AppendField(&fp, "datasets", datasets);
  AppendField(&fp, "model", spec.model);
  AppendField(&fp, "model_config", spec.model_config.ToString());
  for (const DefenseSpec& defense : spec.defenses) {
    AppendField(&fp, "defense", defense.kind + ":" + defense.config.ToString());
  }
  for (const AttackSpec& attack : spec.attacks) {
    AppendField(&fp, "attack",
                attack.kind + ":" + attack.config.ToString() + ":" +
                    attack.label + ":" + attack.experiment);
  }
  std::string fractions;
  for (const double f : spec.target_fractions) fractions += HexDouble(f) + ";";
  AppendField(&fp, "target_fractions", fractions);
  AppendField(&fp, "pred_fraction", HexDouble(spec.pred_fraction));
  AppendField(&fp, "trials", std::to_string(trials));
  AppendField(&fp, "seed", std::to_string(spec.seed));
  AppendField(&fp, "split_seed", std::to_string(spec.split_seed));
  AppendField(&fp, "split_kind",
              std::to_string(static_cast<int>(spec.split_kind)));
  AppendField(&fp, "metric", std::to_string(static_cast<int>(spec.metric)));
  std::string channels;
  for (const std::string& c : spec.channels) channels += c + ";";
  AppendField(&fp, "channels", channels);
  std::string sims;
  for (const std::string& s : spec.sims) sims += s + ";";
  AppendField(&fp, "sims", sims);
  AppendField(&fp, "query_budget", std::to_string(spec.serving.query_budget));
  // Every scale knob feeds training or the prediction set, i.e. cell values.
  // All of them are here; ScaleConfig::trials arrives as `trials`.
  AppendField(&fp, "scale", scale.name);
  AppendField(&fp, "dataset_samples", std::to_string(scale.dataset_samples));
  AppendField(&fp, "prediction_samples",
              std::to_string(scale.prediction_samples));
  AppendField(&fp, "lr_epochs", std::to_string(scale.lr_epochs));
  AppendSizeList(&fp, "mlp_hidden", scale.mlp_hidden);
  AppendField(&fp, "mlp_epochs", std::to_string(scale.mlp_epochs));
  AppendSizeList(&fp, "grna_hidden", scale.grna_hidden);
  AppendField(&fp, "grna_epochs", std::to_string(scale.grna_epochs));
  AppendField(&fp, "dt_depth", std::to_string(scale.dt_depth));
  AppendField(&fp, "rf_trees", std::to_string(scale.rf_trees));
  AppendField(&fp, "rf_depth", std::to_string(scale.rf_depth));
  AppendField(&fp, "gbdt_rounds", std::to_string(scale.gbdt_rounds));
  AppendField(&fp, "gbdt_depth", std::to_string(scale.gbdt_depth));
  AppendSizeList(&fp, "surrogate_hidden", scale.surrogate_hidden);
  AppendField(&fp, "surrogate_samples",
              std::to_string(scale.surrogate_samples));
  AppendField(&fp, "surrogate_epochs", std::to_string(scale.surrogate_epochs));
  return fp;
}

core::StatusOr<std::unique_ptr<GridCheckpoint>> GridCheckpoint::Open(
    store::Env& env, const std::string& dir, const std::string& fingerprint) {
  std::unordered_map<std::string, CheckpointCell> cells;
  bool saw_fingerprint = false;
  core::Status mismatch;
  VFL_RETURN_IF_ERROR(
      store::RecoverWal(
          env, dir,
          [&](std::string_view payload) -> core::Status {
            const std::vector<std::string> fields = SplitFields(payload);
            if (fields.empty()) {
              return core::Status::InvalidArgument(
                  "empty checkpoint journal record");
            }
            if (fields[0] == kFingerprintTag) {
              // Everything after "fp\t"; a bare "fp" record is a mismatch.
              const std::string_view stored =
                  payload.size() >= sizeof(kFingerprintTag)
                      ? payload.substr(sizeof(kFingerprintTag))
                      : std::string_view();
              if (stored != fingerprint) {
                return core::Status::InvalidArgument(
                    "checkpoint directory '" + dir +
                    "' was written by a different experiment configuration; "
                    "refusing to resume (use a fresh --resume directory)");
              }
              saw_fingerprint = true;
              return core::Status::Ok();
            }
            if (fields[0] == kCellTag) {
              if (!saw_fingerprint) {
                return core::Status::InvalidArgument(
                    "checkpoint journal has a cell record before the "
                    "fingerprint record");
              }
              std::string key;
              CheckpointCell cell;
              VFL_RETURN_IF_ERROR(DecodeCell(fields, &key, &cell));
              cells[key] = std::move(cell);  // later duplicates win
              return core::Status::Ok();
            }
            return core::Status::InvalidArgument(
                "unknown checkpoint record tag: " + fields[0]);
          })
          .status());

  VFL_ASSIGN_OR_RETURN(std::unique_ptr<store::WalWriter> wal,
                       store::WalWriter::Open(env, dir, store::WalOptions{}));
  std::unique_ptr<GridCheckpoint> checkpoint(
      new GridCheckpoint(std::move(wal), std::move(cells)));
  // Every segment (re)opens with the fingerprint so a journal is
  // self-describing from its first intact record on.
  std::string header = kFingerprintTag;
  header += kSep;
  header += fingerprint;
  VFL_RETURN_IF_ERROR(checkpoint->wal_->Append(header));
  return checkpoint;
}

bool GridCheckpoint::Lookup(const std::string& key,
                            CheckpointCell* cell) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = cells_.find(key);
  if (it == cells_.end()) return false;
  *cell = it->second;
  return true;
}

core::Status GridCheckpoint::Commit(const std::string& key,
                                    const CheckpointCell& cell) {
  std::lock_guard<std::mutex> lock(mu_);
  VFL_RETURN_IF_ERROR(wal_->Append(EncodeCell(key, cell)));
  cells_[key] = cell;
  return core::Status::Ok();
}

}  // namespace vfl::exp
