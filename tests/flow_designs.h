// Small fixed designs shared by the flow tests: the golden-hash designs,
// also used to check the stage-key contract on both flow kinds.
#pragma once

namespace secflow {

constexpr const char* kSmallDesign = R"(
  module small (input clk, input [3:0] a, input [3:0] b, output [3:0] y);
    reg [3:0] r;
    wire [3:0] m;
    assign m = (a & b) ^ r;
    always @(posedge clk) r <= m | a;
    assign y = r ^ b;
  endmodule)";

// The flow-fuzzer's grammar in miniature: synchronous reset, a scalar and
// a vector register, bit-granular assigns and a mux — the WDDL features
// (tie compounds, rail-swapped port buffers, gated master/slave flops)
// the plain `small` design does not reach.
constexpr const char* kSeqRstDesign = R"(
  module seqrst (input clk, input rst, input [1:0] d, input s,
                 output [1:0] q, output p);
    reg [1:0] r;
    reg f;
    wire [1:0] n;
    assign n[0] = (s ? d[0] : r[1]) ^ f;
    assign n[1] = ~(d[1] & r[0]);
    always @(posedge clk) begin
      r <= rst ? 2'd0 : n;
      f <= rst ? 1'd0 : (d[0] | f);
    end
    assign q = r;
    assign p = ~f;
  endmodule)";

}  // namespace secflow
