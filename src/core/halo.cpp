#include "core/halo.hpp"

#include "common/error.hpp"
#include "core/backends/ref_kernels.hpp"
#include "machine/instrumentation.hpp"

namespace tea {

namespace {
// Tags name the direction of travel; a receive matches the neighbour's send
// towards this rank.  Per-(source, tag) FIFO matching keeps multi-field
// exchange rounds ordered.
constexpr minimpi::Tag kTagToLeft = 4001;
constexpr minimpi::Tag kTagToRight = 4002;
constexpr minimpi::Tag kTagToDown = 4003;
constexpr minimpi::Tag kTagToUp = 4004;

enum Direction { kLeft = 0, kRight = 1, kDown = 2, kUp = 3 };
}  // namespace

HaloExchange::HaloExchange(CellView f, const PartitionGeom& geom,
                           minimpi::Comm* comm, const minimpi::Cart2D* cart,
                           int depth)
    : f_(f), geom_(geom), comm_(comm), cart_(cart), depth_(depth) {
  TL_REQUIRE(depth <= geom.halo, "exchange depth exceeds halo depth");
  if (comm_ != nullptr) {
    TL_REQUIRE(cart_ != nullptr, "distributed exchange needs a topology");
  }
}

void HaloExchange::begin() {
  TL_REQUIRE(!begun_, "HaloExchange::begin called twice");
  begun_ = true;
  if (comm_ == nullptr) return;

  const int nx = geom_.nx;
  const int ny = geom_.ny;
  const std::size_t x_msg = static_cast<std::size_t>(depth_) * ny;
  const std::size_t y_msg = static_cast<std::size_t>(depth_) * nx;
  const int nbr[4] = {cart_->left(), cart_->right(), cart_->down(),
                      cart_->up()};
  const minimpi::Tag recv_tag[4] = {kTagToRight, kTagToLeft, kTagToUp,
                                    kTagToDown};
  const minimpi::Tag send_tag[4] = {kTagToLeft, kTagToRight, kTagToDown,
                                    kTagToUp};

  // Post all four receives first (kProcNull receives complete empty), then
  // pack and eagerly send the boundary strips, so by the time finish() runs
  // every neighbour's data is likely already queued.
  for (int d = 0; d < 4; ++d) {
    recv_[d].resize(d < 2 ? x_msg : y_msg);
    reqs_[d] = comm_->irecv(tl::span<double>(recv_[d]), nbr[d], recv_tag[d]);
  }

  const int col0[2] = {0, nx - depth_};   // strips sent left / right
  for (int d = kLeft; d <= kRight; ++d) {
    if (nbr[d] == minimpi::kProcNull) continue;
    send_[d].resize(x_msg);
    for (int j = 0; j < ny; ++j) {
      for (int k = 0; k < depth_; ++k) {
        send_[d][static_cast<std::size_t>(j) * depth_ + k] = f_(col0[d] + k, j);
      }
    }
    (void)comm_->isend(tl::span<const double>(send_[d]), nbr[d], send_tag[d]);
  }
  const int row0[2] = {0, ny - depth_};   // strips sent down / up
  for (int d = kDown; d <= kUp; ++d) {
    if (nbr[d] == minimpi::kProcNull) continue;
    send_[d].resize(y_msg);
    for (int k = 0; k < depth_; ++k) {
      for (int i = 0; i < nx; ++i) {
        send_[d][static_cast<std::size_t>(k) * nx + i] = f_(i, row0[d - 2] + k);
      }
    }
    (void)comm_->isend(tl::span<const double>(send_[d]), nbr[d], send_tag[d]);
  }
}

void HaloExchange::finish() {
  TL_REQUIRE(begun_, "HaloExchange::finish before begin");
  const int nx = geom_.nx;
  const int ny = geom_.ny;

  if (comm_ != nullptr) {
    comm_->waitall(tl::span<minimpi::Request>(reqs_, 4));

    // Unpack: x halos from the side neighbours, y halos from above/below.
    if (cart_->left() != minimpi::kProcNull) {
      for (int j = 0; j < ny; ++j) {
        for (int k = 0; k < depth_; ++k) {
          f_(-depth_ + k, j) =
              recv_[kLeft][static_cast<std::size_t>(j) * depth_ + k];
        }
      }
    }
    if (cart_->right() != minimpi::kProcNull) {
      for (int j = 0; j < ny; ++j) {
        for (int k = 0; k < depth_; ++k) {
          f_(nx + k, j) =
              recv_[kRight][static_cast<std::size_t>(j) * depth_ + k];
        }
      }
    }
    if (cart_->down() != minimpi::kProcNull) {
      for (int k = 0; k < depth_; ++k) {
        for (int i = 0; i < nx; ++i) {
          f_(i, -depth_ + k) =
              recv_[kDown][static_cast<std::size_t>(k) * nx + i];
        }
      }
    }
    if (cart_->up() != minimpi::kProcNull) {
      for (int k = 0; k < depth_; ++k) {
        for (int i = 0; i < nx; ++i) {
          f_(i, ny + k) = recv_[kUp][static_cast<std::size_t>(k) * nx + i];
        }
      }
    }

    // Charge only the messages actually exchanged: a null neighbour moves no
    // bytes, so domain-edge ranks pay for fewer strips than interior ranks.
    // Every existing neighbour contributes one sent and one received strip.
    std::int64_t moved = 0;
    const std::size_t x_msg = static_cast<std::size_t>(depth_) * ny;
    const std::size_t y_msg = static_cast<std::size_t>(depth_) * nx;
    if (cart_->left() != minimpi::kProcNull) moved += 2 * x_msg;
    if (cart_->right() != minimpi::kProcNull) moved += 2 * x_msg;
    if (cart_->down() != minimpi::kProcNull) moved += 2 * y_msg;
    if (cart_->up() != minimpi::kProcNull) moved += 2 * y_msg;
    const std::int64_t bytes = moved * static_cast<std::int64_t>(sizeof(double));
    machine::sink().add_traffic(bytes, bytes, 0);
  }

  const bool xlo = cart_ == nullptr || cart_->left() == minimpi::kProcNull;
  const bool xhi = cart_ == nullptr || cart_->right() == minimpi::kProcNull;
  const bool ylo = cart_ == nullptr || cart_->down() == minimpi::kProcNull;
  const bool yhi = cart_ == nullptr || cart_->up() == minimpi::kProcNull;
  ref::reflect_halo(f_, nx, ny, depth_, xlo, xhi, ylo, yhi);

  if (comm_ == nullptr || comm_->rank() == 0) {
    machine::sink().add_halo_exchange();
  }
}

void exchange_and_reflect(CellView f, const PartitionGeom& geom,
                          minimpi::Comm* comm, const minimpi::Cart2D* cart,
                          int depth) {
  HaloExchange hx(f, geom, comm, cart, depth);
  hx.begin();
  hx.finish();
}

}  // namespace tea
