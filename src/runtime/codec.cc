#include "runtime/codec.h"

namespace fractal {

void SubgraphCodec::EncodeSubgraph(const Subgraph& subgraph,
                                   ByteWriter* writer) {
  writer->PutU32(static_cast<uint32_t>(subgraph.vertices_.size()));
  for (const VertexId v : subgraph.vertices_) writer->PutU32(v);
  writer->PutU32(static_cast<uint32_t>(subgraph.edges_.size()));
  for (const EdgeId e : subgraph.edges_) writer->PutU32(e);
  for (const uint8_t pair : subgraph.edge_pairs_) writer->PutU8(pair);
  writer->PutU32(static_cast<uint32_t>(subgraph.records_.size()));
  for (const Subgraph::PushRecord& record : subgraph.records_) {
    writer->PutU8(record.vertices_added);
    writer->PutU8(record.edges_added);
  }
}

bool SubgraphCodec::DecodeSubgraph(ByteReader* reader, Subgraph* subgraph) {
  subgraph->Clear();
  const uint32_t num_vertices = reader->GetU32();
  if (!reader->ok() || num_vertices > 1u << 20) return false;
  subgraph->vertices_.resize(num_vertices);
  for (uint32_t i = 0; i < num_vertices; ++i) {
    subgraph->vertices_[i] = reader->GetU32();
  }
  const uint32_t num_edges = reader->GetU32();
  if (!reader->ok() || num_edges > 1u << 20) return false;
  subgraph->edges_.resize(num_edges);
  for (uint32_t i = 0; i < num_edges; ++i) {
    subgraph->edges_[i] = reader->GetU32();
  }
  subgraph->edge_pairs_.resize(num_edges);
  for (uint32_t i = 0; i < num_edges; ++i) {
    subgraph->edge_pairs_[i] = reader->GetU8();
  }
  const uint32_t num_records = reader->GetU32();
  if (!reader->ok() || num_records > 1u << 20) return false;
  subgraph->records_.resize(num_records);
  for (uint32_t i = 0; i < num_records; ++i) {
    subgraph->records_[i].vertices_added = reader->GetU8();
    subgraph->records_[i].edges_added = reader->GetU8();
  }
  if (!reader->ok()) return false;
  // The words were written behind the bitsets' back; restore the invariant
  // (a repeated id could not have been pushed). Then the records must
  // account for every word element and the recorded position pairs must be
  // ones those pushes could have made, so a bad pair never reaches
  // QuickKey.
  return subgraph->RebuildBits() && subgraph->RecordsMatchWords();
}

std::vector<uint8_t> SubgraphCodec::EncodeStolenWork(
    const SubgraphEnumerator::StolenWork& work) {
  ByteWriter writer;
  EncodeSubgraph(work.prefix, &writer);
  writer.PutU32(work.extension);
  writer.PutU32(work.primitive_index);
  writer.PutU32(static_cast<uint32_t>(work.lineage_id));
  writer.PutU32(static_cast<uint32_t>(work.lineage_id >> 32));
  return std::move(writer).Take();
}

bool SubgraphCodec::DecodeStolenWork(const std::vector<uint8_t>& bytes,
                                     SubgraphEnumerator::StolenWork* work) {
  ByteReader reader(bytes);
  if (!DecodeSubgraph(&reader, &work->prefix)) return false;
  work->extension = reader.GetU32();
  work->primitive_index = reader.GetU32();
  const uint64_t lineage_lo = reader.GetU32();
  const uint64_t lineage_hi = reader.GetU32();
  work->lineage_id = (lineage_hi << 32) | lineage_lo;
  return reader.ok() && reader.AtEnd();
}

}  // namespace fractal
