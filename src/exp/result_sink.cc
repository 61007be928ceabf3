#include "exp/result_sink.h"

#include "obs/snapshot_io.h"

namespace vfl::exp {

void CsvRowSink::OnRow(const ResultRow& row) {
  std::fprintf(out_, "%s,%s,%d,%s,%s,%.6f\n", row.experiment.c_str(),
               row.dataset.c_str(), row.dtarget_pct, row.method.c_str(),
               row.metric.c_str(), row.mean);
  std::fflush(out_);
}

void HumanTableSink::OnRow(const ResultRow& row) {
  if (!header_printed_) {
    std::fprintf(out_, "%-12s %-10s %-8s %-22s %-9s %-16s %s\n", "experiment",
                 "dataset", "model", "defense", "d_tgt%", "method", "value");
    header_printed_ = true;
  }
  if (row.trials > 1) {
    std::fprintf(out_, "%-12s %-10s %-8s %-22s %-9d %-16s %.6f ± %.6f (%s)\n",
                 row.experiment.c_str(), row.dataset.c_str(),
                 row.model.c_str(), row.defense.c_str(), row.dtarget_pct,
                 row.method.c_str(), row.mean, row.stddev,
                 row.metric.c_str());
  } else {
    std::fprintf(out_, "%-12s %-10s %-8s %-22s %-9d %-16s %.6f (%s)\n",
                 row.experiment.c_str(), row.dataset.c_str(),
                 row.model.c_str(), row.defense.c_str(), row.dtarget_pct,
                 row.method.c_str(), row.mean, row.metric.c_str());
  }
}

void HumanTableSink::Finish() { std::fflush(out_); }

void JsonLinesSink::OnRow(const ResultRow& row) {
  std::fprintf(out_,
               "{\"experiment\":%s,\"dataset\":%s,\"model\":%s,"
               "\"defense\":%s,\"dtarget_pct\":%d,\"method\":%s,"
               "\"metric\":%s,\"mean\":%.9g,\"stddev\":%.9g,"
               "\"trials\":%zu}\n",
               obs::JsonString(row.experiment).c_str(),
               obs::JsonString(row.dataset).c_str(),
               obs::JsonString(row.model).c_str(),
               obs::JsonString(row.defense).c_str(), row.dtarget_pct,
               obs::JsonString(row.method).c_str(),
               obs::JsonString(row.metric).c_str(),
               row.mean, row.stddev, row.trials);
  std::fflush(out_);
}

}  // namespace vfl::exp
