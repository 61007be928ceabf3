#ifndef VFLFIA_DEFENSE_PIPELINE_H_
#define VFLFIA_DEFENSE_PIPELINE_H_

#include <memory>
#include <string>
#include <vector>

#include "fed/output_defense.h"

namespace vfl::defense {

/// Composable chain of output defenses (Sec. VII countermeasures): stages
/// apply in installation order to every confidence vector that crosses the
/// protocol boundary. The pipeline is itself a fed::OutputDefense (composite
/// pattern), so it installs anywhere a single defense does — a
/// fed::QueryChannel or a serve::PredictionServer.
///
/// An empty pipeline is the identity transformation.
class DefensePipeline : public fed::OutputDefense {
 public:
  DefensePipeline() = default;

  DefensePipeline(DefensePipeline&&) noexcept = default;
  DefensePipeline& operator=(DefensePipeline&&) noexcept = default;
  DefensePipeline(const DefensePipeline&) = delete;
  DefensePipeline& operator=(const DefensePipeline&) = delete;

  /// Appends a stage; `label` shows up in ToString() ("round(d=2)|noise").
  void Add(std::unique_ptr<fed::OutputDefense> stage, std::string label = "");

  /// Runs every stage in order. Stateful stages (seeded noise) advance their
  /// state exactly once per call, so callers control the revealed stream by
  /// controlling application order.
  std::vector<double> Apply(const std::vector<double>& scores) override;

  std::size_t size() const { return stages_.size(); }
  bool empty() const { return stages_.empty(); }

  /// "-" when empty, else stage labels joined with '|'.
  std::string ToString() const;

 private:
  struct Stage {
    std::unique_ptr<fed::OutputDefense> defense;
    std::string label;
  };
  std::vector<Stage> stages_;
};

}  // namespace vfl::defense

#endif  // VFLFIA_DEFENSE_PIPELINE_H_
